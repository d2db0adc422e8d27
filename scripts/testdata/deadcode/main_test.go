package main

import (
	"testing"

	"deadcodefixture/lib"
)

// A test of another package keeps lib.OnlyTestUsed reached.
func TestOnlyTestUsed(t *testing.T) {
	if lib.OnlyTestUsed() != 1 {
		t.Fatal("OnlyTestUsed")
	}
}
