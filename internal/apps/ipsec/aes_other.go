//go:build !amd64

package ipsec

// hostCTR is the CTR routine payloads are encrypted with: off amd64 there
// is only ctrGeneric.
func hostCTR() ctrFunc { return ctrGeneric }
