package blockdev

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/blktrace"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// fakeDevice is a scriptable in-memory device for block-layer tests.
type fakeDevice struct {
	k        *sim.Kernel
	latency  sim.Duration
	failAll  bool
	silent   bool // never answer (forces host timeout)
	pages    map[addr.LPN]content.Fingerprint
	maxInfly int
	infly    int
}

func newFake(k *sim.Kernel) *fakeDevice {
	return &fakeDevice{k: k, latency: 100 * sim.Microsecond, pages: make(map[addr.LPN]content.Fingerprint)}
}

func (d *fakeDevice) Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	d.infly++
	if d.infly > d.maxInfly {
		d.maxInfly = d.infly
	}
	if d.silent {
		return // never completes
	}
	d.k.After(d.latency, func() {
		d.infly--
		if d.failAll {
			done(errors.New("fake device error"), content.Data{})
			return
		}
		switch op {
		case OpWrite:
			for i := 0; i < pages; i++ {
				d.pages[lpn+addr.LPN(i)] = data.Page(i)
			}
			done(nil, content.Data{})
		case OpRead:
			done(nil, content.Gather(pages, func(i int) content.Fingerprint {
				return d.pages[lpn+addr.LPN(i)]
			}))
		default:
			done(nil, content.Data{})
		}
	})
}

func harness(t *testing.T, cfg Config) (*sim.Kernel, *fakeDevice, *Queue, *blktrace.Tracer) {
	t.Helper()
	k := sim.New()
	dev := newFake(k)
	tr := blktrace.NewTracer()
	q, err := New(k, dev, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, dev, q, tr
}

func TestWriteReadRoundTrip(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	r := sim.NewRNG(1)
	payload := content.Random(r, 300) // splits into 128+128+44
	var wrote, read bool
	q.Submit(&Request{Op: OpWrite, LPN: 1000, Pages: 300, Data: payload, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("write err: %v", req.Err)
		}
		wrote = true
	}})
	k.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	q.Submit(&Request{Op: OpRead, LPN: 1000, Pages: 300, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("read err: %v", req.Err)
		}
		if !req.Result.Equal(payload) {
			t.Error("read payload differs from written")
		}
		read = true
	}})
	k.Run()
	if !read {
		t.Fatal("read never completed")
	}
	if q.Stats().Splits != 4 {
		t.Fatalf("splits = %d, want 4 (2 per 300-page request)", q.Stats().Splits)
	}
}

func TestSplitBoundaries(t *testing.T) {
	k, _, q, tr := harness(t, DefaultConfig())
	q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 257, Data: content.Zeroes(257), Done: func(*Request) {}})
	k.Run()
	var subs []blktrace.Event
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActSplit {
			subs = append(subs, e)
		}
	}
	if len(subs) != 3 {
		t.Fatalf("sub-requests = %d, want 3", len(subs))
	}
	if subs[0].Pages != 128 || subs[1].Pages != 128 || subs[2].Pages != 1 {
		t.Fatalf("split sizes wrong: %+v", subs)
	}
	if subs[1].LPN != 128 || subs[2].LPN != 256 {
		t.Fatalf("split offsets wrong: %+v", subs)
	}
}

func TestDepthRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 4
	k, dev, q, _ := harness(t, cfg)
	for i := 0; i < 20; i++ {
		q.Submit(&Request{Op: OpWrite, LPN: addr.LPN(i * 10), Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
	}
	k.Run()
	if dev.maxInfly > 4 {
		t.Fatalf("device saw %d in flight, depth is 4", dev.maxInfly)
	}
	if q.Stats().Completed != 20 {
		t.Fatalf("completed = %d", q.Stats().Completed)
	}
}

func TestQueueFullRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PendingCap = 2
	cfg.Depth = 1
	k, dev, q, tr := harness(t, cfg)
	dev.latency = 10 * sim.Millisecond
	rejected := 0
	for i := 0; i < 10; i++ {
		q.Submit(&Request{Op: OpWrite, LPN: addr.LPN(i), Pages: 1, Data: content.Zeroes(1), Done: func(req *Request) {
			if req.NotIssued {
				if req.Err != ErrQueueFull {
					t.Errorf("rejected with %v", req.Err)
				}
				rejected++
			}
		}})
	}
	k.Run()
	if rejected == 0 {
		t.Fatal("no rejections despite tiny queue")
	}
	if int(q.Stats().Rejected) != rejected {
		t.Fatalf("stats.Rejected=%d, callbacks=%d", q.Stats().Rejected, rejected)
	}
	sawReject := false
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActReject {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("no reject trace event")
	}
}

func TestDeviceErrorPropagates(t *testing.T) {
	k, dev, q, tr := harness(t, DefaultConfig())
	dev.failAll = true
	var gotErr error
	q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 200, Data: content.Zeroes(200), Done: func(req *Request) {
		gotErr = req.Err
	}})
	k.Run()
	if gotErr == nil {
		t.Fatal("device error not surfaced")
	}
	errs := 0
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActError {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("error events = %d, want 2 (one per sub)", errs)
	}
	if q.Stats().Errored != 1 {
		t.Fatalf("stats errored = %d", q.Stats().Errored)
	}
}

func TestTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeout = 100 * sim.Millisecond
	k, dev, q, tr := harness(t, cfg)
	dev.silent = true
	var gotErr error
	done := false
	q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 1, Data: content.Zeroes(1), Done: func(req *Request) {
		gotErr = req.Err
		done = true
	}})
	k.Run()
	if !done || gotErr != ErrTimeout {
		t.Fatalf("timeout not delivered: done=%v err=%v", done, gotErr)
	}
	sawTimeout := false
	for _, e := range tr.Events() {
		if e.Act == blktrace.ActTimeout {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no timeout trace event")
	}
	if k.Now() < sim.Time(100*sim.Millisecond) {
		t.Fatal("completed before the timeout deadline")
	}
}

func TestFlushRequest(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	done := false
	q.Submit(&Request{Op: OpFlush, Done: func(req *Request) {
		if req.Err != nil {
			t.Errorf("flush err: %v", req.Err)
		}
		done = true
	}})
	k.Run()
	if !done {
		t.Fatal("flush never completed")
	}
}

func TestTraceLifecycle(t *testing.T) {
	k, _, q, tr := harness(t, DefaultConfig())
	q.Submit(&Request{Op: OpWrite, LPN: 5, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
	k.Run()
	var acts []blktrace.Action
	for _, e := range tr.Events() {
		acts = append(acts, e.Act)
	}
	want := []blktrace.Action{blktrace.ActQueue, blktrace.ActSplit, blktrace.ActDispatch, blktrace.ActComplete}
	if len(acts) != len(want) {
		t.Fatalf("events: %v", acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("event %d = %c, want %c", i, acts[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.New()
	if _, err := New(k, newFake(k), nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(k, nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestPanicsOnBadRequests(t *testing.T) {
	k, _, q, _ := harness(t, DefaultConfig())
	assertPanics(t, func() { q.Submit(&Request{Op: OpWrite, Pages: 0}) })
	assertPanics(t, func() { q.Submit(&Request{Op: OpWrite, Pages: 2, Data: content.Zeroes(1)}) })
	_ = k
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("op strings wrong")
	}
}

// TestTraceCompletionMatchesStatus pins the paper's btt completion rule to
// the request status the completion callback carries: a request's
// assembled per-IO record is complete (every sub-request reached C, none
// errored, no timeout, issued) exactly when it finished with no error and
// was issued. Reports take the flag from the status, so this is the check
// that the two never disagree.
func TestTraceCompletionMatchesStatus(t *testing.T) {
	cases := []struct {
		name  string
		setup func(cfg *Config, dev *fakeDevice)
		n     int
		pages int
		// complete is how many of the n requests should complete.
		complete int
	}{
		{"ok", func(*Config, *fakeDevice) {}, 1, 300, 1},
		{"device error", func(_ *Config, dev *fakeDevice) { dev.failAll = true }, 1, 300, 0},
		// The device answers after the 30 s deadline; the queue has
		// already failed the request and drops the late completion.
		{"timeout", func(cfg *Config, dev *fakeDevice) {
			cfg.Timeout = 30 * sim.Second
			dev.latency = 31 * sim.Second
		}, 1, 8, 0},
		{"queue full", func(cfg *Config, dev *fakeDevice) {
			cfg.PendingCap, cfg.Depth = 2, 1
			dev.latency = 10 * sim.Millisecond
		}, 6, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			k := sim.New()
			dev := newFake(k)
			tc.setup(&cfg, dev)
			tr := blktrace.NewTracer()
			q, err := New(k, dev, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[uint64]*Request{}
			for i := 0; i < tc.n; i++ {
				req := &Request{Op: OpWrite, LPN: addr.LPN(i * tc.pages), Pages: tc.pages, Data: content.Zeroes(tc.pages), Done: func(*Request) {}}
				q.Submit(req)
				byID[req.ID] = req
			}
			k.Run()
			ios := blktrace.Assemble(tr.Events())
			if len(ios) != tc.n {
				t.Fatalf("assembled %d IOs, want %d", len(ios), tc.n)
			}
			complete := 0
			for _, io := range ios {
				if io.Complete() {
					complete++
				}
				req := byID[io.Req]
				if req == nil {
					t.Fatalf("trace names unknown request %d", io.Req)
				}
				if want := req.Err == nil && !req.NotIssued; io.Complete() != want {
					t.Errorf("req %d: btt complete=%v, status err=%v not-issued=%v", io.Req, io.Complete(), req.Err, req.NotIssued)
				}
			}
			if complete != tc.complete {
				t.Fatalf("%d of %d requests complete, want %d", complete, tc.n, tc.complete)
			}
		})
	}
}
