package faults

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus=1",
		"reset",
		"reset=maybe",
		"reset=0%",
		"reset=200%",
		"reset=3/2",
		"latency=fast",
		"latency=5ms-1ms",
		"latency=1ms@0/4",
		"crash=srv0",
		"crash=srv0@x+1",
		"crash=srv0@3+0",
		"ssdfail=srv0",
		"ssdfail=srv0@-3",
		"ssdfail=srv0@soon",
		"ssdfail=srv1@250ms",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
	ok := []string{
		"",
		" ; ; ",
		"seed=7",
		"reset=1%;refuse=1/50;partial=0.5%;corrupt=2%",
		"latency=1ms",
		"latency=1ms-3ms@5%",
		"crash=srv0@10+4;crash=srv1@2+2",
		"ssdfail=srv0@100;ssdfail=srv1@7",
	}
	for _, spec := range ok {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

func TestNilPlanDisarmed(t *testing.T) {
	var p *Plan
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := p.WrapConn(c1, "x"); got != c1 {
		t.Fatalf("nil plan WrapConn returned a wrapper")
	}
	if p.fire(kindReset, "") {
		t.Fatalf("nil plan fired")
	}
	if _, ok := p.SSDFailWrites("srv0"); ok {
		t.Fatalf("nil plan scheduled an ssd failure")
	}
	if p.Events() != nil {
		t.Fatalf("nil plan has events")
	}
	if p.Seed() != 0 || p.String() != "" {
		t.Fatalf("nil plan accessors not zero")
	}
	if n := len(p.Counts()); n != 0 {
		t.Fatalf("nil plan counts = %d entries", n)
	}
	p.SetObs(obs.NewRegistry()) // must not panic
	p.NoteCrash()
	p.NoteSSDFail()
}

// An unarmed (but non-nil) plan must also be pure passthrough.
func TestUnarmedPassthrough(t *testing.T) {
	p := MustParse("seed=3")
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := p.WrapConn(c1, "x"); got != c1 {
		t.Fatalf("unarmed WrapConn returned a wrapper")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := p.WrapListener(ln, "x"); got != ln {
		t.Fatalf("unarmed WrapListener returned a wrapper")
	}
}

func TestStrideDeterminism(t *testing.T) {
	// Same spec, same op sequence → identical injection counts.
	counts := func() map[string]int64 {
		p := MustParse("seed=42;reset=1/10")
		c1, c2 := net.Pipe()
		defer c2.Close()
		go io.Copy(io.Discard, c2)
		fc := p.WrapConn(c1, "x")
		buf := []byte("payload")
		for i := 0; i < 100; i++ {
			fc.Write(buf)
		}
		fc.Close()
		return p.Counts()
	}
	a, b := counts(), counts()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("two identical runs diverged: %v vs %v", a, b)
	}
	// 100 writes at 1/10: the conn latches dead at the first reset, so
	// exactly one fires.
	if a["reset"] != 1 {
		t.Fatalf("want 1 reset, got %v", a)
	}
}

func TestStrideRateOverFreshConns(t *testing.T) {
	// A fresh conn per op (the client redials after each reset), 1/10
	// rate over 100 writes → exactly 10 resets regardless of seed phase.
	p := MustParse("seed=9;reset=1/10")
	var resets int
	for i := 0; i < 100; i++ {
		c1, c2 := net.Pipe()
		go io.Copy(io.Discard, c2)
		fc := p.WrapConn(c1, "x")
		if _, err := fc.Write([]byte("op")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			resets++
		}
		fc.Close()
		c2.Close()
	}
	if resets != 10 {
		t.Fatalf("want 10 resets over 100 ops, got %d", resets)
	}
	if p.Counts()["reset"] != 10 {
		t.Fatalf("counter disagrees: %v", p.Counts())
	}
}

func TestSeedMovesPhase(t *testing.T) {
	firstFire := func(seed uint64) int {
		p := MustParse(fmt.Sprintf("seed=%d;reset=1/64", seed))
		for i := 0; ; i++ {
			if p.fire(kindReset, "") {
				return i
			}
		}
	}
	a := firstFire(1)
	for seed := uint64(2); seed < 12; seed++ {
		if firstFire(seed) != a {
			return // phases differ → seed is live
		}
	}
	t.Fatalf("phase identical across 11 seeds; seed not wired into schedule")
}

func TestResetLatchesConnDead(t *testing.T) {
	p := MustParse("reset=1/1")
	c1, c2 := net.Pipe()
	defer c2.Close()
	fc := p.WrapConn(c1, "x")
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: want injected reset, got %v", err)
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dead conn write: want injected reset, got %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("dead conn read: want injected reset, got %v", err)
	}
	if p.Counts()["reset"] != 1 {
		t.Fatalf("latched conn recounted: %v", p.Counts())
	}
}

func TestPartialWrite(t *testing.T) {
	p := MustParse("partial=1/1")
	c1, c2 := net.Pipe()
	got := make(chan int, 1)
	go func() {
		b, _ := io.ReadAll(c2)
		got <- len(b)
	}()
	fc := p.WrapConn(c1, "x")
	payload := make([]byte, 64)
	n, err := fc.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected partial, got %v", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("want short count %d, got %d", len(payload)/2, n)
	}
	if onWire := <-got; onWire != len(payload)/2 {
		t.Fatalf("peer saw %d bytes, want %d", onWire, len(payload)/2)
	}
}

func TestCorruptRead(t *testing.T) {
	p := MustParse("corrupt=1/1")
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	orig := []byte("hello fragment")
	go c2.Write(orig)
	fc := p.WrapConn(c1, "x")
	buf := make([]byte, len(orig))
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range buf {
		if buf[i] != orig[i] {
			diff++
		}
	}
	// Every read call corrupts one byte; ReadFull over a pipe may take
	// one or more reads but must clobber at least one byte.
	if diff == 0 {
		t.Fatalf("corrupt=1/1 read arrived intact")
	}
	if p.Counts()["corrupt"] == 0 {
		t.Fatalf("no corruption counted: %v", p.Counts())
	}
}

func TestLatencyInjection(t *testing.T) {
	p := MustParse("latency=20ms")
	c1, c2 := net.Pipe()
	defer c2.Close()
	go io.Copy(io.Discard, c2)
	fc := p.WrapConn(c1, "x")
	start := time.Now() //lint:allow detclock test measures the injected real delay
	fc.Write([]byte("x"))
	if d := time.Since(start); d < 15*time.Millisecond { //lint:allow detclock test measures the injected real delay
		t.Fatalf("latency=20ms write returned in %v", d)
	}
	if p.Counts()["latency"] == 0 {
		t.Fatalf("no latency counted")
	}
}

func TestDialRefusal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	p := MustParse("refuse=1/2")
	var refused, okDials int
	for i := 0; i < 10; i++ {
		c, err := p.Dial("client", "tcp", ln.Addr().String(), time.Second)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("organic dial error: %v", err)
			}
			refused++
			continue
		}
		c.Close()
		okDials++
	}
	if refused != 5 || okDials != 5 {
		t.Fatalf("refuse=1/2 over 10 dials: refused=%d ok=%d", refused, okDials)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := MustParse("reset=1/1")
	fln := p.WrapListener(ln, "srv0")
	defer fln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.Write([]byte("x"))
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn not fault-wrapped: write err = %v", err)
	}
}

func TestCrashSchedule(t *testing.T) {
	p := MustParse("crash=srv1@10+4;crash=srv0@2+3")
	want := []Event{
		{Op: 2, Scope: "srv0", Kind: ServerDown},
		{Op: 5, Scope: "srv0", Kind: ServerUp},
		{Op: 10, Scope: "srv1", Kind: ServerDown},
		{Op: 14, Scope: "srv1", Kind: ServerUp},
	}
	got := p.Events()
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSSDFailTriggers(t *testing.T) {
	p := MustParse("ssdfail=srv0@3;ssdfail=srv2@250")
	if n, ok := p.SSDFailWrites("srv0"); !ok || n != 3 {
		t.Fatalf("SSDFailWrites(srv0) = %d,%v", n, ok)
	}
	if _, ok := p.SSDFailWrites("srv1"); ok {
		t.Fatalf("srv1 has no schedule")
	}
	if n, ok := p.SSDFailWrites("srv2"); !ok || n != 250 {
		t.Fatalf("SSDFailWrites(srv2) = %d,%v", n, ok)
	}
}

func TestObsMirroring(t *testing.T) {
	p := MustParse("reset=1/1")
	reg := obs.NewRegistry()
	p.SetObs(reg)
	c1, c2 := net.Pipe()
	defer c2.Close()
	fc := p.WrapConn(c1, "x")
	fc.Write([]byte("x"))
	if v := reg.Counter("faults.injected.reset").Value(); v != 1 {
		t.Fatalf("faults.injected.reset = %d, want 1", v)
	}
}

func TestCountsString(t *testing.T) {
	p := MustParse("reset=1/1")
	if s := p.CountsString(); s != "none" {
		t.Fatalf("fresh plan CountsString = %q", s)
	}
	p.note(kindReset, "")
	p.note(kindCrash, "")
	if s := p.CountsString(); s != "crash=1 reset=1" {
		t.Fatalf("CountsString = %q", s)
	}
}
