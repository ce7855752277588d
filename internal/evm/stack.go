package evm

import (
	"errors"

	"sereth/internal/uint256"
)

// StackLimit is the maximum EVM stack depth.
const StackLimit = 1024

// Stack errors.
var (
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
)

// stack is the EVM operand stack of 256-bit words. Its methods do not
// check bounds: the dispatch loop has already validated a handler's
// operand counts against the operation table's minStack/maxStack.
type stack struct {
	data []uint256.Int
}

func (s *stack) len() int { return len(s.data) }

// upush appends without an overflow check (loop-validated).
func (s *stack) upush(v uint256.Int) { s.data = append(s.data, v) }

// upop removes and returns the top without an underflow check.
func (s *stack) upop() uint256.Int {
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v
}

// upeek returns a pointer to the top element for in-place replacement.
func (s *stack) upeek() *uint256.Int { return &s.data[len(s.data)-1] }

// peek returns the n-th element from the top (0 = top) by value.
func (s *stack) peek(n int) uint256.Int { return s.data[len(s.data)-1-n] }

// udrop discards the top n elements without an underflow check.
func (s *stack) udrop(n int) { s.data = s.data[:len(s.data)-n] }

// memory is the byte-addressed expandable EVM memory.
type memory struct {
	data []byte
}

// maxMemBytes caps EVM memory at 512 MiB; ranges beyond it return a
// gas-bomb word count so the charge faults before any allocation.
const maxMemBytes = (1 << 24) * 32

// expand grows memory to cover [offset, offset+size) rounded up to 32-byte
// words, returning the number of new words (for gas charging). Absurd
// offsets are rejected by the caller via gas exhaustion on the returned
// word count. The cap check runs BEFORE the word rounding: for end
// within 31 bytes of 2^64 the old `(end+31)/32` wrapped to zero words,
// charging nothing and letting a ~30-gas SHA3/RETURN reach the
// allocator with a 2^64-scale size — a slice-bounds panic on every
// replaying peer (regression-pinned by TestMemoryExpandOverflow).
func (m *memory) expand(offset, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	end := offset + size
	if end < offset || end > maxMemBytes {
		return 1 << 32
	}
	words := (end + 31) / 32
	curWords := uint64(len(m.data)) / 32
	if words <= curWords {
		return 0
	}
	grown := words - curWords
	m.data = append(m.data, make([]byte, (words-curWords)*32)...)
	return grown
}

// view returns the backing bytes of [offset, offset+size) without
// copying. Callers must consume the slice before the next expand (and
// must never let it escape a pooled frame); memory data is pooled, so
// escaping views would alias later calls.
func (m *memory) view(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	return m.data[offset : offset+size]
}

func (m *memory) set(offset uint64, value []byte) {
	copy(m.data[offset:], value)
}

func (m *memory) len() uint64 { return uint64(len(m.data)) }

// bitvec is a bitmap over code offsets — the jump-table interpreter's
// valid-JUMPDEST set (the generic path keeps the original map form).
type bitvec []uint64

func (b bitvec) set(i uint64) { b[i/64] |= 1 << (i % 64) }

func (b bitvec) isSet(i uint64) bool {
	w := i / 64
	return w < uint64(len(b)) && b[w]&(1<<(i%64)) != 0
}

// analyzeJumpDestsBitvec marks every valid JUMPDEST position in code,
// reusing buf's capacity when possible.
func analyzeJumpDestsBitvec(code []byte, buf bitvec) bitvec {
	words := (len(code) + 63) / 64
	if cap(buf) >= words {
		buf = buf[:words]
		clear(buf)
	} else {
		buf = make(bitvec, words)
	}
	for pc := 0; pc < len(code); pc++ {
		op := OpCode(code[pc])
		if op == JUMPDEST {
			buf.set(uint64(pc))
		} else if op.IsPush() {
			pc += op.PushSize()
		}
	}
	return buf
}
