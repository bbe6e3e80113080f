//go:build !amd64

package ipsec

// hostBlock is the compression function ICVs run on: off amd64 there is
// only blockGeneric.
func hostBlock() blockFunc { return blockGeneric }
