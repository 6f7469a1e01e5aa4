package faults

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []string{
		"",
		"seed=42",
		"io-err:p=0.01",
		"corrupt-artifact:p=1",
		"panic-cell:every=97",
		"io-err:p=0.01;corrupt-artifact:p=0.005;panic-cell:every=97;seed=7",
		" io-err:p=0.5 ; seed=1 ;",
	}
	for _, spec := range cases {
		if err := Validate(spec); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", spec, err)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"bogus", "not class:param=value"},
		{"warp-core:p=0.1", "unknown class"},
		{"io-err:p=2", "probability"},
		{"io-err:p=-0.5", "probability"},
		{"io-err:every=0", "positive integer"},
		{"io-err:q=0.5", "unknown parameter"},
		{"io-err:p=0.5,every=3", "mutually exclusive"},
		{"io-err:", "key=value"},
		{"panic-cell:p=0;seed=1", "needs p= or every="},
		{"seed=xyz", "bad seed"},
		{"io-err:p=NaN", "probability"},
		{"io-err:p=+Inf", "probability"},
		{"panic-cell:every=3;panic-cell:p=0.5", "given twice"},
		{"io-err:p=0.1,p=0.2", "given twice"},
		{"seed=1;io-err:p=0.1;seed=2", "given twice"},
	}
	for _, c := range cases {
		err := Validate(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate(%q) = %v, want error containing %q", c.spec, err, c.wantSub)
		}
	}
}

// FuzzFaultSpec: every spec Parse accepts compiles to rules that can
// fire as written — each p a probability in [0,1], p and every exclusive,
// one armed rule per rule field (none silently dropped) — and parsing it
// again yields the same injector.
func FuzzFaultSpec(f *testing.F) {
	f.Add("io-err:p=0.01;corrupt-artifact:p=0.005;panic-cell:every=97;net-err:p=0.01;seed=1")
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		armed := 0
		for c, r := range in.rules {
			if !(r.p >= 0 && r.p <= 1) || r.every < 0 || (r.p != 0 && r.every != 0) {
				t.Fatalf("Parse(%q): %s rule %+v is not a valid schedule", spec, Class(c), r)
			}
			if r.p != 0 || r.every != 0 {
				armed++
			}
		}
		fields := 0
		for _, field := range strings.Split(spec, ";") {
			if field = strings.TrimSpace(field); field != "" && !strings.HasPrefix(field, "seed=") {
				fields++
			}
		}
		if armed != fields {
			t.Fatalf("Parse(%q): %d rule fields but %d armed rules", spec, fields, armed)
		}
		again, err := Parse(spec)
		if err != nil || again.seed != in.seed || again.rules != in.rules {
			t.Fatalf("Parse(%q) is not deterministic: %+v/%d vs %+v/%d (%v)",
				spec, in.rules, in.seed, again.rules, again.seed, err)
		}
	})
}

func TestEveryIsPeriodic(t *testing.T) {
	in, err := Parse("panic-cell:every=5")
	if err != nil {
		t.Fatal(err)
	}
	var fires []int64
	for i := 0; i < 20; i++ {
		if hit, n := in.fire(PanicCell); hit {
			fires = append(fires, n)
		}
	}
	want := []int64{4, 9, 14, 19}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestProbabilityEndpointsAndDeterminism(t *testing.T) {
	always, _ := Parse("io-err:p=1")
	for i := 0; i < 100; i++ {
		if hit, _ := always.fire(IOErr); !hit {
			t.Fatalf("p=1 draw %d did not fire", i)
		}
	}
	// Two injectors with the same spec fire on the same draw indices.
	a, _ := Parse("io-err:p=0.3;seed=11")
	b, _ := Parse("io-err:p=0.3;seed=11")
	for i := 0; i < 1000; i++ {
		ha, _ := a.fire(IOErr)
		hb, _ := b.fire(IOErr)
		if ha != hb {
			t.Fatalf("draw %d diverged between identical injectors", i)
		}
	}
	if a.fired[IOErr].Load() == 0 {
		t.Fatal("p=0.3 never fired in 1000 draws")
	}
}

func TestInstallHooksAndSnapshot(t *testing.T) {
	defer Install("")
	if err := Install("io-err:p=1;corrupt-artifact:p=1;panic-cell:every=1;seed=9"); err != nil {
		t.Fatal(err)
	}
	if !FailIO() {
		t.Fatal("FailIO did not fire with p=1")
	}
	orig := bytes.Repeat([]byte{0xAA}, 64)
	data := append([]byte(nil), orig...)
	Corrupt(data)
	if bytes.Equal(data, orig) {
		t.Fatal("Corrupt did not flip a bit with p=1")
	}
	diff := 0
	for i := range data {
		if data[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("Corrupt changed %d bytes, want exactly 1", diff)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil || !IsInjected(r) {
				t.Fatalf("PanicPoint recovered %v, want *Injected", r)
			}
		}()
		PanicPoint("test")
	}()
	s := Snapshot()
	if s.IOErrs != 1 || s.Corruptions != 1 || s.Panics != 1 {
		t.Fatalf("Snapshot = %+v, want one fire per class", s)
	}
	if s.Spec == "" {
		t.Fatal("Snapshot.Spec empty with injector installed")
	}
}

func TestUninstalledHooksAreInert(t *testing.T) {
	Install("")
	if FailIO() {
		t.Fatal("FailIO fired with no injector")
	}
	data := []byte{1, 2, 3}
	Corrupt(data)
	if data[0] != 1 || data[1] != 2 || data[2] != 3 {
		t.Fatal("Corrupt mutated data with no injector")
	}
	PanicPoint("test") // must not panic
	if s := Snapshot(); s != (Stats{}) {
		t.Fatalf("Snapshot = %+v, want zero", s)
	}
}

func TestIsInjectedRejectsOtherPanics(t *testing.T) {
	if IsInjected("boom") || IsInjected(42) || IsInjected(nil) {
		t.Fatal("IsInjected accepted a non-injected value")
	}
}

func TestNetErrClass(t *testing.T) {
	if err := Validate("net-err:p=0.25;seed=3"); err != nil {
		t.Fatalf("Validate(net-err) = %v, want nil", err)
	}
	if err := Install("net-err:p=1;seed=3"); err != nil {
		t.Fatal(err)
	}
	defer Install("")
	for i := 0; i < 3; i++ {
		if !FailNet() {
			t.Fatalf("FailNet() draw %d = false under p=1", i)
		}
	}
	// The other hooks stay inert: net-err must never bleed into local
	// store I/O or compute paths.
	if FailIO() {
		t.Fatal("FailIO fired under a net-err-only spec")
	}
	PanicPoint("compute") // must not panic
	if got := Snapshot().NetErrs; got != 3 {
		t.Fatalf("Snapshot().NetErrs = %d, want 3", got)
	}
	if Snapshot().IOErrs != 0 || Snapshot().Panics != 0 {
		t.Fatal("net-err draws leaked into other class counters")
	}
}

func TestFailNetUninstalledIsInert(t *testing.T) {
	Install("")
	if FailNet() {
		t.Fatal("FailNet() fired with no injector installed")
	}
}
