package ipsec

import "nba/internal/hostcpu"

// hostBlock is the compression function ICVs run on: blockSHANI where the
// CPU has it, blockGeneric elsewhere.
func hostBlock() blockFunc {
	if hostcpu.SHANI {
		return blockSHANI
	}
	return blockGeneric
}

// blockSHANI is blockFunc on the SHA extensions (SHA1RNDS4, SHA1NEXTE,
// SHA1MSG1, SHA1MSG2). Only call it where hostcpu.SHANI holds.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
