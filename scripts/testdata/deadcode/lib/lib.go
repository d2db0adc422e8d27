// Package lib holds one declaration of each kind the deadcode script
// tells apart.
package lib

import "fmt"

// Used is called by main.
func Used() { fmt.Println("used") }

// Unused is the planted declaration: only its own package's test names
// it, so the script must list it.
func Unused() int { return 0 }

// OnlyTestUsed is called by main's test alone.
func OnlyTestUsed() int { return 1 }

// Shape is the interface main calls Area through.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// NewSquare returns a square as a Shape.
func NewSquare(side float64) Shape { return square{side} }

func (s square) Area() float64 { return s.side * s.side }
