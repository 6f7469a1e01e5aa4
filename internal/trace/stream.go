package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Packed instruction sections and chunked container writing.
//
// The original SecInsts payload spends ~4B per instruction: a varint PC
// delta, a flags byte, and (for branches/mem ops) a raw operand varint.
// The packed SecInstsZ payload folds the dominant structure of the stream
// into single tokens:
//
//	payload := count uvarint, then records
//	token   := uvarint(u<<5 | op)
//	op 0..15:  one record; class = op>>1, taken = op&1,
//	           u = zigzag((PC-prevPC)/4)   (instruction PCs are 4-aligned)
//	           branches append uvarint(zigzag((Target-PC)/4))
//	           loads/stores append uvarint(zigzag(MemAddr-prevMem))
//	op 16:     a run of u (1..maxPackedRun) sequential not-taken ALU
//	           instructions, each advancing the PC by 4; longer runs
//	           split into several tokens
//	op 17:     escape for records the folded forms cannot carry (PC or
//	           target not 4-aligned): uvarint(zigzag(PC-prevPC)), the
//	           SecInsts flags byte, then the SecInsts operand encoding
//
// Sequential fetch makes the common tokens one byte (delta/4 = 1 folds to
// token 64+op) and collapses straight-line ALU runs to one or two bytes,
// so the packed stream lands well under the old 4B/inst. Each section is
// self-contained — prevPC and prevMem reset to zero per section. Writers
// emit one section per trace (PackedEncoder builds it window by window);
// the reader still concatenates any number of SecInstsZ sections back into
// one trace, because stores written by older versions carry one per window.

// SecInstsZ tags a packed instruction section. Read concatenates every
// one a container carries, in order.
const SecInstsZ = "INSZ"

const (
	packedOpShift  = 5
	packedOpMask   = 1<<packedOpShift - 1
	packedOpRun    = 16 // u = run length of sequential ALU records
	packedOpEscape = 17 // raw SecInsts-style record follows
)

// maxPackedRun caps the records one run token expands to. No payload byte
// can therefore stand for more than maxPackedRun records, which is the
// bound the decoder holds a section's declared count to before it
// allocates. Straight-line ALU runs in real code are far shorter, so the
// cap never splits a run in practice.
const maxPackedRun = 1 << 16

// EncodeInstsPacked encodes an instruction stream as a SecInstsZ payload.
func EncodeInstsPacked(insts []Inst) []byte {
	e := NewPackedEncoder(len(insts))
	e.Append(insts)
	return e.Finish()
}

// PackedEncoder builds one SecInstsZ payload incrementally, so a producer
// that sees the stream in windows still writes a single section: the
// encoder carries prevPC, prevMem and any open ALU run across Append
// calls, and its output equals EncodeInstsPacked over the concatenated
// input however the stream was split.
type PackedEncoder struct {
	out             []byte // a reserved count prefix, then the records
	count           uint64
	prevPC, prevMem uint64
	run             uint64 // sequential not-taken ALU records not yet emitted
}

// NewPackedEncoder starts a payload; capHint is the expected instruction
// count (0 is fine).
func NewPackedEncoder(capHint int) *PackedEncoder {
	out := make([]byte, binary.MaxVarintLen64, binary.MaxVarintLen64+capHint+capHint/2)
	return &PackedEncoder{out: out}
}

// Append encodes the next instructions of the stream. insts is not
// retained.
func (e *PackedEncoder) Append(insts []Inst) {
	for i := range insts {
		in := &insts[i]
		if in.Class == ClassALU && !in.Taken && in.PC == e.prevPC+instAlign {
			if e.run == maxPackedRun {
				e.flushRun()
			}
			e.run++
			e.prevPC = in.PC
			continue
		}
		e.flushRun()
		e.record(in)
	}
	e.count += uint64(len(insts))
}

// flushRun emits the open ALU run: a run token for two or more records,
// the plain one-record token (delta/4 = 1) for a lone one.
func (e *PackedEncoder) flushRun() {
	switch e.run {
	case 0:
		return
	case 1:
		e.out = binary.AppendUvarint(e.out, zigzag(1)<<packedOpShift|uint64(ClassALU)<<1)
	default:
		e.out = binary.AppendUvarint(e.out, e.run<<packedOpShift|packedOpRun)
	}
	e.run = 0
}

// record emits one non-run record.
func (e *PackedEncoder) record(in *Inst) {
	pcDelta := int64(in.PC - e.prevPC)
	tgtDelta := int64(in.Target - in.PC)
	foldable := in.Class < 16 && pcDelta%instAlign == 0 &&
		(!in.Class.IsBranch() || tgtDelta%instAlign == 0)
	if foldable {
		op := uint64(in.Class) << 1
		if in.Taken {
			op |= 1
		}
		e.out = binary.AppendUvarint(e.out, zigzag(pcDelta/instAlign)<<packedOpShift|op)
		if in.Class.IsBranch() {
			e.out = binary.AppendUvarint(e.out, zigzag(tgtDelta/instAlign))
		}
	} else {
		e.out = binary.AppendUvarint(e.out, packedOpEscape) // u = 0
		e.out = binary.AppendUvarint(e.out, zigzag(pcDelta))
		flags := byte(in.Class)
		if in.Taken {
			flags |= 0x80
		}
		e.out = append(e.out, flags)
		if in.Class.IsBranch() {
			e.out = binary.AppendUvarint(e.out, zigzag(tgtDelta))
		}
	}
	if in.Class.IsMem() {
		e.out = binary.AppendUvarint(e.out, zigzag(int64(in.MemAddr-e.prevMem)))
		e.prevMem = in.MemAddr
	}
	e.prevPC = in.PC
}

// Finish closes the payload and returns it. The count prefix is written
// right-aligned into the reserved bytes, so no record is copied. The
// encoder must not be used afterwards.
func (e *PackedEncoder) Finish() []byte {
	e.flushRun()
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], e.count)
	start := binary.MaxVarintLen64 - k
	copy(e.out[start:], hdr[:k])
	out := e.out[start:]
	e.out = nil
	return out
}

// instAlign is the fixed instruction encoding width assumed by the folded
// token forms; anything else rides the escape op.
const instAlign = 4

// DecodeInstsPacked decodes one SecInstsZ payload.
func DecodeInstsPacked(data []byte) ([]Inst, error) {
	return AppendInstsPacked(nil, data)
}

// AppendInstsPacked decodes a SecInstsZ payload, appending to dst — the
// reader uses it to concatenate the sections of a multi-section container.
func AppendInstsPacked(dst []Inst, data []byte) ([]Inst, error) {
	pos := 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	count, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: packed instruction count: truncated varint", ErrBadFormat)
	}
	// A run token covers up to maxPackedRun records, and every token takes
	// at least one payload byte, so a count beyond that many records per
	// remaining byte cannot be honest: reject it before allocating.
	if count > maxSaneLen || count > uint64(len(data)-pos)*maxPackedRun {
		return nil, fmt.Errorf("%w: packed instruction count %d exceeds what %d payload bytes can hold", ErrBadFormat, count, len(data)-pos)
	}
	if dst == nil {
		dst = make([]Inst, 0, min(count, 1<<20))
	}
	var prevPC, prevMem uint64
	for n := uint64(0); n < count; {
		tok, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("%w: packed record %d: truncated token", ErrBadFormat, n)
		}
		op := tok & packedOpMask
		u := tok >> packedOpShift
		var in Inst
		switch {
		case op == packedOpRun:
			if u < 1 || u > maxPackedRun || u > count-n {
				return nil, fmt.Errorf("%w: packed record %d: run of %d exceeds count %d", ErrBadFormat, n, u, count)
			}
			for k := uint64(0); k < u; k++ {
				prevPC += instAlign
				dst = append(dst, Inst{PC: prevPC, Class: ClassALU})
			}
			n += u
			continue
		case op == packedOpEscape:
			d, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("%w: packed record %d: truncated escape delta", ErrBadFormat, n)
			}
			if pos >= len(data) {
				return nil, fmt.Errorf("%w: packed record %d: truncated flags", ErrBadFormat, n)
			}
			flags := data[pos]
			pos++
			in = Inst{PC: prevPC + uint64(unzigzag(d)), Class: Class(flags & 0x7f), Taken: flags&0x80 != 0}
			if in.Class >= numClasses {
				return nil, fmt.Errorf("%w: packed record %d: bad class %d", ErrBadFormat, n, in.Class)
			}
			if in.Class.IsBranch() {
				td, ok := uvarint()
				if !ok {
					return nil, fmt.Errorf("%w: packed record %d: truncated target", ErrBadFormat, n)
				}
				in.Target = in.PC + uint64(unzigzag(td))
			}
		default:
			in = Inst{PC: prevPC + uint64(unzigzag(u)*instAlign), Class: Class(op >> 1), Taken: op&1 != 0}
			if in.Class >= numClasses {
				return nil, fmt.Errorf("%w: packed record %d: bad class %d", ErrBadFormat, n, in.Class)
			}
			if in.Class.IsBranch() {
				td, ok := uvarint()
				if !ok {
					return nil, fmt.Errorf("%w: packed record %d: truncated target", ErrBadFormat, n)
				}
				in.Target = in.PC + uint64(unzigzag(td)*instAlign)
			}
		}
		if in.Class.IsMem() {
			d, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("%w: packed record %d: truncated memaddr", ErrBadFormat, n)
			}
			in.MemAddr = prevMem + uint64(unzigzag(d))
			prevMem = in.MemAddr
		}
		prevPC = in.PC
		dst = append(dst, in)
		n++
	}
	return dst, nil
}

// ContainerWriter writes a v2 container section by section, so a producer
// materializes one section payload at a time instead of the whole image. The section count is not known up front; Close
// patches it into the header, which is why the writer needs an
// io.WriteSeeker (the artifact store hands it the temp file it later
// renames into place).
type ContainerWriter struct {
	ws   io.WriteSeeker
	bw   *bufio.Writer
	nsec uint32
	err  error
}

// nsecOffset is the byte offset of the section-count field in the
// container header: magic[4] + version[4] + nameLen[4].
const nsecOffset = 12

// NewContainerWriter writes the container header with a zero section
// count and returns a writer ready for WriteSection calls.
func NewContainerWriter(ws io.WriteSeeker, name string) (*ContainerWriter, error) {
	if len(name) > 1<<16 {
		return nil, fmt.Errorf("trace: container name %d bytes exceeds the reader's %d limit", len(name), 1<<16)
	}
	bw := bufio.NewWriterSize(ws, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], codecVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(name)))
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // patched by Close
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &ContainerWriter{ws: ws, bw: bw}, nil
}

// WriteSection appends one tagged section.
func (cw *ContainerWriter) WriteSection(tag string, data []byte) error {
	if cw.err != nil {
		return cw.err
	}
	if len(tag) != 4 {
		return fmt.Errorf("trace: section tag %q must be 4 bytes", tag)
	}
	if uint64(len(data)) > maxSaneLen {
		return fmt.Errorf("trace: section %q payload %d bytes exceeds the reader's limit", tag, len(data))
	}
	if cw.nsec >= 1<<10 {
		cw.err = fmt.Errorf("trace: section count exceeds the reader's %d limit", 1<<10)
		return cw.err
	}
	var sh [16]byte
	copy(sh[0:4], tag)
	binary.LittleEndian.PutUint64(sh[4:12], uint64(len(data)))
	binary.LittleEndian.PutUint32(sh[12:16], crc32.ChecksumIEEE(data))
	if _, err := cw.bw.Write(sh[:]); err != nil {
		cw.err = err
		return err
	}
	if _, err := cw.bw.Write(data); err != nil {
		cw.err = err
		return err
	}
	cw.nsec++
	return nil
}

// Close flushes buffered sections and patches the section count into the
// header, leaving the stream positioned at the end of the container.
func (cw *ContainerWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if err := cw.bw.Flush(); err != nil {
		cw.err = err
		return err
	}
	if _, err := cw.ws.Seek(nsecOffset, io.SeekStart); err != nil {
		cw.err = err
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], cw.nsec)
	if _, err := cw.ws.Write(n[:]); err != nil {
		cw.err = err
		return err
	}
	if _, err := cw.ws.Seek(0, io.SeekEnd); err != nil {
		cw.err = err
		return err
	}
	return nil
}
