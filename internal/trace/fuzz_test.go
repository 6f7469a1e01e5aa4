package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// instsFromBytes maps fuzz bytes to an instruction stream, four bytes per
// record: class and taken bit; a PC step (sequential +4, so ALU runs form,
// or an arbitrary and possibly unaligned delta); a branch target offset;
// a data-address step. Fields a class does not carry stay zero, as the
// decoders produce them.
func instsFromBytes(data []byte) []Inst {
	insts := make([]Inst, 0, len(data)/4)
	var pc, mem uint64
	for ; len(data) >= 4; data = data[4:] {
		in := Inst{Class: Class(data[0] % uint8(numClasses)), Taken: data[0]&0x80 != 0}
		if data[1]&0x80 == 0 {
			pc += instAlign
		} else {
			pc += uint64(int64(int8(data[1] << 1)))
		}
		in.PC = pc
		if in.Class.IsBranch() {
			in.Target = pc + uint64(int64(int8(data[2])))
		}
		if in.Class.IsMem() {
			mem += uint64(int64(int8(data[3])) * 64)
			in.MemAddr = mem
		}
		insts = append(insts, in)
	}
	return insts
}

// FuzzPackedEncoder: for any instruction stream split at fuzz-chosen
// points, the incremental encoder's output equals EncodeInstsPacked's, and
// it decodes back to the stream.
func FuzzPackedEncoder(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0}, 40), []byte{3, 0, 17})
	f.Add([]byte{1, 0x81, 7, 0, 0, 0, 0, 0, 2, 0, 0, 9, 0, 0xfe, 0, 0}, []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		insts := instsFromBytes(data)
		want := EncodeInstsPacked(insts)
		e := NewPackedEncoder(0)
		rest := insts
		for _, c := range cuts {
			k := min(int(c)%32, len(rest))
			e.Append(rest[:k])
			rest = rest[k:]
		}
		e.Append(rest)
		if got := e.Finish(); !bytes.Equal(got, want) {
			t.Fatalf("incremental payload (%d bytes) differs from EncodeInstsPacked (%d bytes)", len(got), len(want))
		}
		got, err := DecodeInstsPacked(want)
		if err != nil {
			t.Fatal(err)
		}
		assertInstsEqual(t, insts, got)
	})
}

// FuzzReadTrace: Read on arbitrary bytes never panics; it either fails or
// returns a trace that round-trips through Write and Read.
func FuzzReadTrace(f *testing.F) {
	var b bytes.Buffer
	Write(&b, &Trace{Name: "seed", Insts: instsFromBytes(bytes.Repeat([]byte{0, 0, 0, 0, 3, 0x81, 4, 2}, 8))})
	f.Add(b.Bytes())
	f.Add([]byte("ACTR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if back.Name != tr.Name {
			t.Fatalf("name %q round-trips as %q", tr.Name, back.Name)
		}
		assertInstsEqual(t, tr.Insts, back.Insts)
	})
}

func assertInstsEqual(t *testing.T, want, got []Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d instructions round-trip as %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestReadRejectsCountBeyondPayload pins the decoder bound behind the
// insz-count-bomb fuzz seed: a CRC-valid INSZ section declaring 2^32
// records with a single run token must fail before any record allocation,
// since no token expands to more than maxPackedRun records.
func TestReadRejectsCountBeyondPayload(t *testing.T) {
	payload := binary.AppendUvarint(nil, 1<<32)
	payload = binary.AppendUvarint(payload, 3<<packedOpShift|packedOpRun)
	var b bytes.Buffer
	if err := WriteContainer(&b, "bomb", []Section{{Tag: SecInstsZ, Data: payload}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(b.Bytes())); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Read = %v, want ErrBadFormat", err)
	}
	if _, err := DecodeInstsPacked(payload); err == nil || !strings.Contains(err.Error(), "exceeds what") {
		t.Fatalf("DecodeInstsPacked = %v, want the count bound", err)
	}
	// A run token longer than maxPackedRun is rejected even under an
	// honest-looking count.
	long := binary.AppendUvarint(nil, maxPackedRun+1)
	long = binary.AppendUvarint(long, (maxPackedRun+1)<<packedOpShift|packedOpRun)
	if _, err := DecodeInstsPacked(long); err == nil {
		t.Fatal("run token past maxPackedRun decoded")
	}
}

// TestPackedEncoderSplitsLongRuns: a straight-line ALU run longer than
// maxPackedRun encodes as several run tokens and round-trips.
func TestPackedEncoderSplitsLongRuns(t *testing.T) {
	insts := make([]Inst, 2*maxPackedRun+5)
	for i := range insts {
		insts[i] = Inst{PC: uint64(i+1) * instAlign, Class: ClassALU}
	}
	got, err := DecodeInstsPacked(EncodeInstsPacked(insts))
	if err != nil {
		t.Fatal(err)
	}
	assertInstsEqual(t, insts, got)
}
