// Package deadexport is the module's root package, a facade over its
// internal packages: its exported names need a use by the module's
// non-test code as much as internal/'s do.
package deadexport

// Open is called by cmd/tool: clean.
func Open() *Sink { return &Sink{} }

// Consumer is declared here and used by cmd/tool.
type Consumer interface {
	Consume(n int) error
}

// Sink is named by Open's signature: clean.
type Sink struct{}

// Consume satisfies Consumer, an interface of this package: clean.
func (s *Sink) Consume(n int) error { return nil }

// Reopen has no use: reported, in the root package as under internal/.
func Reopen() *Sink { return &Sink{} } // want deadexport "func Reopen"

// Documented is used only by a runnable Example in a test file, and
// says so: clean.
//
//hbvet:allow deadexport documented by ExampleDocumented
func Documented() {}
