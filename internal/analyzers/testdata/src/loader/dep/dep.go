// Package dep is imported by the use fixture: the loader must hand use
// the dep package it loaded, not a second type-check of it.
package dep

// T is the type use refers to.
type T struct{ N int }
