package blockdev

import (
	"testing"

	"powerfail/internal/addr"
	"powerfail/internal/content"
	"powerfail/internal/sim"
)

// TestQueueZeroAllocs pins the per-IO hot path measured by
// BenchmarkQueueSubmitComplete and BenchmarkQueueSubmitCompleteSplit:
// once the request, sub-request and timer pools are warm, a pooled write
// goes submit → split → dispatch → complete without allocating, whole or
// split. The queue runs untraced (no TraceIOs scope), as every platform
// does unless a block trace is being exported.
func TestQueueZeroAllocs(t *testing.T) {
	for _, pages := range []int{8, 300} {
		k := sim.New()
		q, err := New(k, &benchDevice{k: k}, DefaultPendingCap)
		if err != nil {
			t.Fatal(err)
		}
		payload := content.Zeroes(pages)
		i := 0
		n := testing.AllocsPerRun(500, func() {
			req := q.NewRequest()
			req.Op = OpWrite
			req.LPN = addr.LPN((i % 64) * pages)
			req.Pages = pages
			req.Data = payload
			req.Done = nopDone
			q.Submit(req)
			k.Run()
			i++
		})
		if n != 0 {
			t.Errorf("%d-page write: %v allocs/op, want 0", pages, n)
		}
	}
}
