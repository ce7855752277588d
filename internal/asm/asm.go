// Package asm provides a small two-pass EVM assembler with label
// resolution, used to compile the Sereth contract (paper Listing 1) to
// bytecode without a Solidity toolchain.
package asm

import (
	"fmt"

	"sereth/internal/evm"
	"sereth/internal/types"
)

// Program is an EVM program under construction. Append instructions with
// the fluent methods, then call Assemble.
type Program struct {
	instrs []instruction
	labels map[string]bool
}

type instrKind int

const (
	kindOp instrKind = iota + 1
	kindPushBytes
	kindPushLabel
	kindLabel
)

type instruction struct {
	kind  instrKind
	op    evm.OpCode
	bytes []byte
	label string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{labels: make(map[string]bool)}
}

// Op appends a bare opcode.
func (p *Program) Op(op evm.OpCode) *Program {
	p.instrs = append(p.instrs, instruction{kind: kindOp, op: op})
	return p
}

// PushInt appends the smallest PUSH for v.
func (p *Program) PushInt(v uint64) *Program {
	if v == 0 {
		return p.PushBytes([]byte{0})
	}
	var buf []byte
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> uint(shift))
		if len(buf) == 0 && b == 0 {
			continue
		}
		buf = append(buf, b)
	}
	return p.PushBytes(buf)
}

// PushBytes appends PUSH<len(b)> with the given immediate (1..32 bytes).
func (p *Program) PushBytes(b []byte) *Program {
	if len(b) == 0 || len(b) > 32 {
		panic(fmt.Sprintf("asm: push immediate of %d bytes", len(b)))
	}
	cp := append([]byte{}, b...)
	p.instrs = append(p.instrs, instruction{kind: kindPushBytes, bytes: cp})
	return p
}

// PushSelector appends PUSH4 with a function selector immediate.
func (p *Program) PushSelector(s types.Selector) *Program { return p.PushBytes(s[:]) }

// PushLabel appends PUSH2 whose immediate is resolved to the label's
// offset at assembly time.
func (p *Program) PushLabel(name string) *Program {
	p.instrs = append(p.instrs, instruction{kind: kindPushLabel, label: name})
	return p
}

// Label defines a jump destination here (emits JUMPDEST).
func (p *Program) Label(name string) *Program {
	if p.labels[name] {
		panic(fmt.Sprintf("asm: duplicate label %q", name))
	}
	p.labels[name] = true
	p.instrs = append(p.instrs, instruction{kind: kindLabel, label: name})
	return p
}

// Assemble resolves labels and emits bytecode.
func (p *Program) Assemble() ([]byte, error) {
	// Pass 1: compute offsets.
	offsets := make(map[string]uint16)
	pos := 0
	for _, ins := range p.instrs {
		switch ins.kind {
		case kindOp:
			pos++
		case kindPushBytes:
			pos += 1 + len(ins.bytes)
		case kindPushLabel:
			pos += 3 // PUSH2 + 2 bytes
		case kindLabel:
			if pos > 0xffff {
				return nil, fmt.Errorf("asm: program too large at label %q", ins.label)
			}
			offsets[ins.label] = uint16(pos)
			pos++ // JUMPDEST
		}
	}
	// Pass 2: emit.
	out := make([]byte, 0, pos)
	for _, ins := range p.instrs {
		switch ins.kind {
		case kindOp:
			out = append(out, byte(ins.op))
		case kindPushBytes:
			out = append(out, byte(evm.PUSH1)+byte(len(ins.bytes)-1))
			out = append(out, ins.bytes...)
		case kindPushLabel:
			off, ok := offsets[ins.label]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q", ins.label)
			}
			out = append(out, byte(evm.PUSH1)+1, byte(off>>8), byte(off))
		case kindLabel:
			out = append(out, byte(evm.JUMPDEST))
		}
	}
	return out, nil
}

// MustAssemble assembles or panics; for compile-time-constant programs.
func (p *Program) MustAssemble() []byte {
	code, err := p.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}
