package sim

import "testing"

// TestKernelZeroAllocs pins the kernel's steady-state allocation-free
// paths (see BenchmarkKernelScheduleFire and BenchmarkKernelScheduleStop):
// schedule→fire and schedule→stop reuse arena slots and heap entries, so
// neither allocates once the arena has grown.
func TestKernelZeroAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		k.After(Duration(i%97), fn)
		k.Step()
	}); n != 0 {
		t.Errorf("schedule/fire: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		i++
		tm := k.After(Duration(1+i%97), fn)
		tm.Stop()
	}); n != 0 {
		t.Errorf("schedule/stop: %v allocs/op, want 0", n)
	}
}
