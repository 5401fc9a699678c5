// Package api lies outside internal/, and its exported names need a use
// all the same: every non-main package of the module is held to the
// rule.
package api

// Version is read by cmd/tool.
const Version = "1"

// Unused has no use in the module: reported.
func Unused() {} // want deadexport "func Unused"
