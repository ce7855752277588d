// Package keccak implements the legacy Keccak-256 hash (the pre-SHA-3
// variant with 0x01 domain padding) used by Ethereum for transaction
// hashes, storage keys, function selectors and the HMS marks.
//
// Two paths are provided. The one-shot Sum256/Sum256Into run a stack
// sponge that absorbs full-rate chunks straight from the input slices —
// no Hasher allocation, no buffer copy, no non-destructive state clone —
// and are what every hot caller (tx hashing, marks, trie node hashing,
// state commitment) goes through. The incremental Hasher remains for
// streaming writers; its Sum256 stays non-destructive but clones only
// the 200-byte lane state plus the live buffer prefix, never the full
// 136-byte buffer.
package keccak

// Size is the digest length in bytes.
const Size = 32

// rate is the sponge rate for Keccak-256: 1600 - 2*256 bits = 136 bytes.
const rate = 136

var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
	0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// xorIn absorbs one full-rate block from b into the state (no permute).
func xorIn(st *[25]uint64, b []byte) {
	_ = b[rate-1] // one bounds check for the whole block
	for i := 0; i < rate/8; i++ {
		st[i] ^= leUint64(b[i*8:])
	}
}

// finalize absorbs the partial tail block (len < rate), applies the
// legacy 0x01/0x80 domain padding directly into the lanes, and runs the
// final permutation. Destructive on st.
func finalize(st *[25]uint64, tail []byte) {
	invocations.Add(1)
	i := 0
	for ; i+8 <= len(tail); i += 8 {
		st[i>>3] ^= leUint64(tail[i:])
	}
	var last uint64
	for j := len(tail) - 1; j >= i; j-- {
		last = last<<8 | uint64(tail[j])
	}
	st[i>>3] ^= last
	st[len(tail)>>3] ^= 0x01 << (8 * (uint(len(tail)) & 7))
	st[(rate-1)>>3] ^= 0x80 << 56
	keccakF1600(st)
}

// extract squeezes the 32-byte digest from a finalized state.
func extract(st *[25]uint64) (out [32]byte) {
	putLeUint64(out[0:], st[0])
	putLeUint64(out[8:], st[1])
	putLeUint64(out[16:], st[2])
	putLeUint64(out[24:], st[3])
	return out
}

// absorb runs the sponge over every input slice, permuting on full-rate
// blocks taken directly from the inputs; sub-rate remainders and
// cross-slice seams stage through buf. Returns the staged tail length.
func absorb(st *[25]uint64, buf *[rate]byte, data [][]byte) int {
	buffed := 0
	for _, d := range data {
		if buffed > 0 {
			n := copy(buf[buffed:], d)
			buffed += n
			d = d[n:]
			if buffed < rate {
				continue
			}
			xorIn(st, buf[:])
			keccakF1600(st)
			buffed = 0
		}
		for len(d) >= rate {
			xorIn(st, d)
			keccakF1600(st)
			d = d[rate:]
		}
		buffed = copy(buf[:], d)
	}
	return buffed
}

// Sum256 returns the Keccak-256 digest of the concatenation of the given
// byte slices. The sponge lives on the stack and full-rate chunks are
// absorbed directly from the inputs.
func Sum256(data ...[]byte) [32]byte {
	var st [25]uint64
	var buf [rate]byte
	finalize(&st, buf[:absorb(&st, &buf, data)])
	return extract(&st)
}

// Sum256Into computes the digest like Sum256, squeezing the finalized
// lanes directly into *out — the variant for callers hashing into an
// existing field.
func Sum256Into(out *[32]byte, data ...[]byte) {
	var st [25]uint64
	var buf [rate]byte
	finalize(&st, buf[:absorb(&st, &buf, data)])
	*out = extract(&st)
}

// Hasher is an incremental Keccak-256 hasher. The zero value is ready to
// use. It implements a Write/Sum interface similar to hash.Hash.
type Hasher struct {
	state  [25]uint64
	buf    [rate]byte
	buffed int
}

// New returns a new incremental hasher.
func New() *Hasher { return &Hasher{} }

// Reset restores the hasher to its initial state.
func (h *Hasher) Reset() {
	h.state = [25]uint64{}
	h.buffed = 0
}

// Write absorbs p into the sponge. It never returns an error.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	if h.buffed > 0 {
		c := copy(h.buf[h.buffed:], p)
		h.buffed += c
		p = p[c:]
		if h.buffed < rate {
			return n, nil
		}
		xorIn(&h.state, h.buf[:])
		keccakF1600(&h.state)
		h.buffed = 0
	}
	for len(p) >= rate {
		xorIn(&h.state, p)
		keccakF1600(&h.state)
		p = p[rate:]
	}
	h.buffed = copy(h.buf[:], p)
	return n, nil
}

// Sum256 finalizes a clone of the sponge and returns the 32-byte digest;
// the hasher may continue to be written to afterwards. Only the lane
// state is cloned — the buffered tail is absorbed straight from h.buf,
// so the non-destructive guarantee no longer costs a full Hasher copy.
func (h *Hasher) Sum256() [32]byte {
	st := h.state
	finalize(&st, h.buf[:h.buffed])
	return extract(&st)
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
