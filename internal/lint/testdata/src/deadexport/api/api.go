// Package api lies outside internal/: its unused exported names are API
// and never reported.
package api

// Version is read by cmd/tool.
const Version = "1"

// Unused is exported outside internal/: clean.
func Unused() {}
