package iosched

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/sim"
)

// recorder is a device that fails the test when the queue breaks the
// Device contract: a Start while a request is in service, or a Finish
// of anything but the request in service. It serves on a real disk,
// and counts the anticipation windows it sees: a Start later than the
// previous Finish although the queue held work at that Finish.
type recorder struct {
	t       *testing.T
	e       *sim.Engine
	q       *Queue
	disk    *hdd.Disk
	busy    bool
	cur     device.Request
	starts  int
	windows int
	// lastFinish is the instant of the previous Finish, and backlog
	// whether the queue held work then.
	lastFinish sim.Time
	backlog    bool
}

func (d *recorder) Start(r device.Request) sim.Duration {
	if d.busy {
		d.t.Errorf("Start(%+v) at %v while %+v is in service", r, d.e.Now(), d.cur)
	}
	if d.backlog && d.e.Now() > d.lastFinish {
		d.windows++
	}
	d.busy, d.cur = true, r
	d.starts++
	return d.disk.Start(r)
}

func (d *recorder) Finish(r device.Request) {
	if !d.busy || r != d.cur {
		d.t.Errorf("Finish(%+v) at %v; in service: %v %+v", r, d.e.Now(), d.busy, d.cur)
	}
	d.busy = false
	d.disk.Finish(r)
	d.lastFinish, d.backlog = d.e.Now(), d.q.Pending() > 0
}

// TestDeviceServesOneRequestAtATime: whatever many origins submit, and
// whenever, the queue starts a request on its device only while the
// device is idle, and finishes exactly the one it started. Under CFQ
// the origins' runs of nearby requests, separated by think times, open
// anticipation windows; FIFO never idles with work queued.
func TestDeviceServesOneRequestAtATime(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"CFQ", DiskDefaults()},
		{"FIFO", SSDDefaults()},
	} {
		t.Run(c.name, func(t *testing.T) {
			const origins, perOrigin = 12, 24
			e := sim.New()
			dev := &recorder{t: t, e: e, disk: hdd.New(e, hdd.DefaultSpec(), sim.NewRNG(1))}
			q := New(e, dev, c.cfg, nil)
			dev.q = q
			rng := sim.NewRNG(9)
			served := 0
			for o := 0; o < origins; o++ {
				r := rng.Fork()
				e.Go(fmt.Sprint("origin", o), func(p *sim.Proc) {
					lbn := int64(o) << 24
					for i := 0; i < perOrigin; i++ {
						if i%6 == 0 {
							lbn = r.Range(0, 1<<30) // a new run elsewhere
						}
						p.Sleep(r.Duration(0, 3*sim.Millisecond))
						submit(p, q, device.Request{Op: device.Op(i % 2), LBN: lbn, Sectors: 8 * (1 + r.Range(0, 16)), Origin: int32(o)})
						served++
						lbn += 256
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if served != origins*perOrigin {
				t.Fatalf("%d of %d submits returned", served, origins*perOrigin)
			}
			if dev.busy {
				t.Error("a request was left in service")
			}
			if n := q.Stats().Dispatches; int64(dev.starts) != n || dev.disk.Stats().TotalOps() != n {
				t.Errorf("%d dispatches, %d starts, %d disk ops", n, dev.starts, dev.disk.Stats().TotalOps())
			}
			switch {
			case c.cfg.Policy == CFQ && dev.windows == 0:
				t.Error("no anticipation window opened")
			case c.cfg.Policy == FIFO && dev.windows != 0:
				t.Errorf("FIFO idled %d times with work queued", dev.windows)
			}
		})
	}
}

// fixedDevice serves every request in the same time.
type fixedDevice sim.Duration

func (d fixedDevice) Start(device.Request) sim.Duration { return sim.Duration(d) }
func (fixedDevice) Finish(device.Request)               {}

// BenchmarkQueueDispatch measures the scheduler's cost per request: a
// chain of sequential requests, each started by its predecessor's
// continuation, to a queue whose device takes a fixed time, so each op
// is a busy period of one request — the Start, the callback that
// dispatches it, the completion callback and the continuation's event.
func BenchmarkQueueDispatch(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"CFQ", DiskDefaults()},
		{"FIFO", SSDDefaults()},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := sim.New()
			q := New(e, fixedDevice(100*sim.Microsecond), c.cfg, nil)
			n, i := b.N, 0
			var next func()
			next = func() {
				if i < n {
					i++
					q.Start(device.Request{Op: device.Read, LBN: int64(i) * 8, Sectors: 8, Origin: 1}, next)
				}
			}
			next()
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
