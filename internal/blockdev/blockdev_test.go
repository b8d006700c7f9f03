package blockdev

import (
	"errors"
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/obs"
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
	// subs records every (lpn, pages) submission in arrival order.
	subs []fakeSub
}

type fakeSub struct {
	lpn   addr.LPN
	pages int
}

func newFake(k *sim.Kernel) *fakeDevice {
	return &fakeDevice{k: k, latency: 100 * sim.Microsecond, pages: make(map[addr.LPN]content.Fingerprint)}
}

func (d *fakeDevice) Submit(op Op, lpn addr.LPN, pages int, data content.Data, done func(error, content.Data)) {
	d.subs = append(d.subs, fakeSub{lpn, pages})
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

func harness(t *testing.T, pendingCap int) (*sim.Kernel, *fakeDevice, *Queue) {
	t.Helper()
	k := sim.New()
	dev := newFake(k)
	q, err := New(k, dev, pendingCap)
	if err != nil {
		t.Fatal(err)
	}
	return k, dev, q
}

func TestWriteReadRoundTrip(t *testing.T) {
	k, _, q := harness(t, DefaultPendingCap)
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
	k, dev, q := harness(t, DefaultPendingCap)
	q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 257, Data: content.Zeroes(257), Done: func(*Request) {}})
	k.Run()
	subs := dev.subs
	if len(subs) != 3 {
		t.Fatalf("sub-requests = %d, want 3", len(subs))
	}
	if subs[0].pages != 128 || subs[1].pages != 128 || subs[2].pages != 1 {
		t.Fatalf("split sizes wrong: %+v", subs)
	}
	if subs[0].lpn != 0 || subs[1].lpn != 128 || subs[2].lpn != 256 {
		t.Fatalf("split offsets wrong: %+v", subs)
	}
}

func TestDepthRespected(t *testing.T) {
	k, dev, q := harness(t, DefaultPendingCap)
	n := 2*depth + 8
	for i := 0; i < n; i++ {
		q.Submit(&Request{Op: OpWrite, LPN: addr.LPN(i * 10), Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
	}
	k.Run()
	if dev.maxInfly != depth {
		t.Fatalf("device saw at most %d in flight, depth is %d", dev.maxInfly, depth)
	}
	if q.Stats().Completed != int64(n) {
		t.Fatalf("completed = %d", q.Stats().Completed)
	}
}

func TestQueueFullRejection(t *testing.T) {
	k, dev, q := harness(t, 2)
	dev.latency = 10 * sim.Millisecond
	rejected := 0
	for i := 0; i < depth+10; i++ {
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
	if rejected != 8 {
		t.Fatalf("%d rejections, want 8: %d dispatched, 2 pending, the rest rejected", rejected, depth)
	}
	if int(q.Stats().Rejected) != rejected {
		t.Fatalf("stats.Rejected=%d, callbacks=%d", q.Stats().Rejected, rejected)
	}
}

func TestDeviceErrorPropagates(t *testing.T) {
	k, dev, q := harness(t, DefaultPendingCap)
	dev.failAll = true
	var gotErr error
	q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 200, Data: content.Zeroes(200), Done: func(req *Request) {
		gotErr = req.Err
	}})
	k.Run()
	if gotErr == nil {
		t.Fatal("device error not surfaced")
	}
	if q.Stats().Errored != 1 {
		t.Fatalf("stats errored = %d", q.Stats().Errored)
	}
}

func TestTimeout(t *testing.T) {
	k, dev, q := harness(t, DefaultPendingCap)
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
	if k.Now() < sim.Time(timeout) {
		t.Fatal("completed before the timeout deadline")
	}
}

func TestFlushRequest(t *testing.T) {
	k, _, q := harness(t, DefaultPendingCap)
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

func TestConfigValidation(t *testing.T) {
	k := sim.New()
	for _, pendingCap := range []int{0, -1} {
		if _, err := New(k, newFake(k), pendingCap); err == nil {
			t.Fatalf("pending cap %d accepted", pendingCap)
		}
	}
	if _, err := New(k, nil, DefaultPendingCap); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestPanicsOnBadRequests(t *testing.T) {
	k, _, q := harness(t, DefaultPendingCap)
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
// the request status the completion callback carries: a traced queue
// buffers a block-IO span exactly for the requests that finished with no
// error and were issued (every sub-request reached C before the timeout),
// stamped with the request's queue and completion times. Reports take
// the flag from the status, so this is the check that the trace and the
// reports never disagree.
func TestTraceCompletionMatchesStatus(t *testing.T) {
	cases := []struct {
		name  string
		setup func(pendingCap *int, dev *fakeDevice)
		n     int
		pages int
		// complete is how many of the n requests should complete.
		complete int
	}{
		{"ok", func(*int, *fakeDevice) {}, 1, 300, 1},
		{"device error", func(_ *int, dev *fakeDevice) { dev.failAll = true }, 1, 300, 0},
		// The device answers after the 30 s deadline; the queue has
		// already failed the request and drops the late completion.
		{"timeout", func(_ *int, dev *fakeDevice) {
			dev.latency = 31 * sim.Second
		}, 1, 8, 0},
		// depth requests dispatch, two wait and the last two are
		// rejected.
		{"queue full", func(pendingCap *int, dev *fakeDevice) {
			*pendingCap = 2
			dev.latency = 10 * sim.Millisecond
		}, depth + 4, 1, depth + 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pendingCap := DefaultPendingCap
			k := sim.New()
			dev := newFake(k)
			tc.setup(&pendingCap, dev)
			q, err := New(k, dev, pendingCap)
			if err != nil {
				t.Fatal(err)
			}
			set := obs.NewSet()
			q.TraceIOs(set.Scope("blk"))
			byID := map[uint64]*Request{}
			for i := 0; i < tc.n; i++ {
				req := &Request{Op: OpWrite, LPN: addr.LPN(i * tc.pages), Pages: tc.pages, Data: content.Zeroes(tc.pages), Done: func(*Request) {}}
				q.Submit(req)
				byID[req.ID] = req
			}
			k.Run()
			q.FlushIOs()
			spans := set.TraceEvents()
			if len(spans) != tc.complete {
				t.Fatalf("%d spans for %d requests, want %d", len(spans), tc.n, tc.complete)
			}
			for _, e := range spans {
				req := byID[uint64(e.Value)]
				if req == nil {
					t.Fatalf("span names unknown request %d", e.Value)
				}
				if req.Err != nil || req.NotIssued {
					t.Errorf("req %d has a span, status err=%v not-issued=%v", e.Value, req.Err, req.NotIssued)
				}
				want := obs.Event{At: req.Queued, Dur: req.Completed.Sub(req.Queued), Kind: obs.KindBlockIO, Comp: "blk", Name: "W", Value: int64(req.ID)}
				if e != want {
					t.Errorf("span %+v, want %+v", e, want)
				}
			}
		})
	}
}

// TestTraceSpansFlushInIDOrder checks the buffer's lifecycle: spans leave
// in request-ID order even when a later request completes first, a flush
// empties the buffer, and a queue without an enabled scope buffers
// nothing.
func TestTraceSpansFlushInIDOrder(t *testing.T) {
	run := func(sc obs.Scope) *Queue {
		k, dev, q := harness(t, DefaultPendingCap)
		q.TraceIOs(sc)
		dev.latency = 10 * sim.Millisecond
		q.Submit(&Request{Op: OpWrite, LPN: 0, Pages: 1, Data: content.Zeroes(1), Done: func(*Request) {}})
		dev.latency = sim.Millisecond
		q.Submit(&Request{Op: OpRead, LPN: 8, Pages: 1, Done: func(*Request) {}})
		k.Run()
		return q
	}

	set := obs.NewSet()
	q := run(set.Scope("blk"))
	if len(q.ios.spans) != 2 || q.ios.spans[0].Name != "R" {
		t.Fatalf("buffered %+v, want the read (completed first) then the write", q.ios.spans)
	}
	q.FlushIOs()
	got := set.TraceEvents()
	if len(got) != 2 || got[0].Value != 1 || got[0].Name != "W" || got[1].Value != 2 || got[1].Name != "R" {
		t.Fatalf("flushed %+v, want request 1 (W) then 2 (R)", got)
	}
	if len(q.ios.spans) != 0 {
		t.Fatalf("flush left %d spans buffered", len(q.ios.spans))
	}
	q.FlushIOs()
	if n := len(set.TraceEvents()); n != 2 {
		t.Fatalf("second flush recorded again: %d events", n)
	}

	if q := run(obs.Scope{}); len(q.ios.spans) != 0 {
		t.Errorf("untraced queue buffered %d spans", len(q.ios.spans))
	}
}
