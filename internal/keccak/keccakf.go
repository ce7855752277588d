package keccak

import "math/bits"

// keccakF1600 applies the 24-round Keccak-f[1600] permutation in place.
//
// The state stays in memory and a round is computed one output row at a
// time, alternating between st and one stack scratch state, two rounds
// per iteration: theta's column parities and D masks, then per row the
// rho-rotated, pi-permuted source lanes and chi straight into the
// destination. At most fifteen temporaries are live — c0..c4, d0..d4,
// b0..b4 — which fit amd64's registers; holding all 25 lanes and their
// rho-pi images in locals does the same arithmetic and pays for spilling
// most of them every round. Pinned bit-identical to the loop form in
// keccakf_test.go by TestUnrolledMatchesGeneric and FuzzF1600.
func keccakF1600(st *[25]uint64) {
	var t [25]uint64
	for i := 0; i < 24; i += 2 {
		// Even round, st -> t. Theta: column parities and the D masks.
		c0 := st[0] ^ st[5] ^ st[10] ^ st[15] ^ st[20]
		c1 := st[1] ^ st[6] ^ st[11] ^ st[16] ^ st[21]
		c2 := st[2] ^ st[7] ^ st[12] ^ st[17] ^ st[22]
		c3 := st[3] ^ st[8] ^ st[13] ^ st[18] ^ st[23]
		c4 := st[4] ^ st[9] ^ st[14] ^ st[19] ^ st[24]
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)

		// Rho + Pi + Chi, row by row: b[x] = rotl(src ^ d, r), then
		// out[x] = b[x] ^ (^b[x+1] & b[x+2]), Iota folded into lane 0.
		b0 := st[0] ^ d0
		b1 := bits.RotateLeft64(st[6]^d1, 44)
		b2 := bits.RotateLeft64(st[12]^d2, 43)
		b3 := bits.RotateLeft64(st[18]^d3, 21)
		b4 := bits.RotateLeft64(st[24]^d4, 14)
		t[0] = b0 ^ (^b1 & b2) ^ roundConstants[i]
		t[1] = b1 ^ (^b2 & b3)
		t[2] = b2 ^ (^b3 & b4)
		t[3] = b3 ^ (^b4 & b0)
		t[4] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(st[3]^d3, 28)
		b1 = bits.RotateLeft64(st[9]^d4, 20)
		b2 = bits.RotateLeft64(st[10]^d0, 3)
		b3 = bits.RotateLeft64(st[16]^d1, 45)
		b4 = bits.RotateLeft64(st[22]^d2, 61)
		t[5] = b0 ^ (^b1 & b2)
		t[6] = b1 ^ (^b2 & b3)
		t[7] = b2 ^ (^b3 & b4)
		t[8] = b3 ^ (^b4 & b0)
		t[9] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(st[1]^d1, 1)
		b1 = bits.RotateLeft64(st[7]^d2, 6)
		b2 = bits.RotateLeft64(st[13]^d3, 25)
		b3 = bits.RotateLeft64(st[19]^d4, 8)
		b4 = bits.RotateLeft64(st[20]^d0, 18)
		t[10] = b0 ^ (^b1 & b2)
		t[11] = b1 ^ (^b2 & b3)
		t[12] = b2 ^ (^b3 & b4)
		t[13] = b3 ^ (^b4 & b0)
		t[14] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(st[4]^d4, 27)
		b1 = bits.RotateLeft64(st[5]^d0, 36)
		b2 = bits.RotateLeft64(st[11]^d1, 10)
		b3 = bits.RotateLeft64(st[17]^d2, 15)
		b4 = bits.RotateLeft64(st[23]^d3, 56)
		t[15] = b0 ^ (^b1 & b2)
		t[16] = b1 ^ (^b2 & b3)
		t[17] = b2 ^ (^b3 & b4)
		t[18] = b3 ^ (^b4 & b0)
		t[19] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(st[2]^d2, 62)
		b1 = bits.RotateLeft64(st[8]^d3, 55)
		b2 = bits.RotateLeft64(st[14]^d4, 39)
		b3 = bits.RotateLeft64(st[15]^d0, 41)
		b4 = bits.RotateLeft64(st[21]^d1, 2)
		t[20] = b0 ^ (^b1 & b2)
		t[21] = b1 ^ (^b2 & b3)
		t[22] = b2 ^ (^b3 & b4)
		t[23] = b3 ^ (^b4 & b0)
		t[24] = b4 ^ (^b0 & b1)

		// Odd round, t -> st: the same round with the two states swapped.
		c0 = t[0] ^ t[5] ^ t[10] ^ t[15] ^ t[20]
		c1 = t[1] ^ t[6] ^ t[11] ^ t[16] ^ t[21]
		c2 = t[2] ^ t[7] ^ t[12] ^ t[17] ^ t[22]
		c3 = t[3] ^ t[8] ^ t[13] ^ t[18] ^ t[23]
		c4 = t[4] ^ t[9] ^ t[14] ^ t[19] ^ t[24]
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)

		b0 = t[0] ^ d0
		b1 = bits.RotateLeft64(t[6]^d1, 44)
		b2 = bits.RotateLeft64(t[12]^d2, 43)
		b3 = bits.RotateLeft64(t[18]^d3, 21)
		b4 = bits.RotateLeft64(t[24]^d4, 14)
		st[0] = b0 ^ (^b1 & b2) ^ roundConstants[i+1]
		st[1] = b1 ^ (^b2 & b3)
		st[2] = b2 ^ (^b3 & b4)
		st[3] = b3 ^ (^b4 & b0)
		st[4] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(t[3]^d3, 28)
		b1 = bits.RotateLeft64(t[9]^d4, 20)
		b2 = bits.RotateLeft64(t[10]^d0, 3)
		b3 = bits.RotateLeft64(t[16]^d1, 45)
		b4 = bits.RotateLeft64(t[22]^d2, 61)
		st[5] = b0 ^ (^b1 & b2)
		st[6] = b1 ^ (^b2 & b3)
		st[7] = b2 ^ (^b3 & b4)
		st[8] = b3 ^ (^b4 & b0)
		st[9] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(t[1]^d1, 1)
		b1 = bits.RotateLeft64(t[7]^d2, 6)
		b2 = bits.RotateLeft64(t[13]^d3, 25)
		b3 = bits.RotateLeft64(t[19]^d4, 8)
		b4 = bits.RotateLeft64(t[20]^d0, 18)
		st[10] = b0 ^ (^b1 & b2)
		st[11] = b1 ^ (^b2 & b3)
		st[12] = b2 ^ (^b3 & b4)
		st[13] = b3 ^ (^b4 & b0)
		st[14] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(t[4]^d4, 27)
		b1 = bits.RotateLeft64(t[5]^d0, 36)
		b2 = bits.RotateLeft64(t[11]^d1, 10)
		b3 = bits.RotateLeft64(t[17]^d2, 15)
		b4 = bits.RotateLeft64(t[23]^d3, 56)
		st[15] = b0 ^ (^b1 & b2)
		st[16] = b1 ^ (^b2 & b3)
		st[17] = b2 ^ (^b3 & b4)
		st[18] = b3 ^ (^b4 & b0)
		st[19] = b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(t[2]^d2, 62)
		b1 = bits.RotateLeft64(t[8]^d3, 55)
		b2 = bits.RotateLeft64(t[14]^d4, 39)
		b3 = bits.RotateLeft64(t[15]^d0, 41)
		b4 = bits.RotateLeft64(t[21]^d1, 2)
		st[20] = b0 ^ (^b1 & b2)
		st[21] = b1 ^ (^b2 & b3)
		st[22] = b2 ^ (^b3 & b4)
		st[23] = b3 ^ (^b4 & b0)
		st[24] = b4 ^ (^b0 & b1)
	}
}
