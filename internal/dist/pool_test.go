package dist_test

import (
	"testing"

	"op2hpx/internal/dist"
)

// TestPoolReserve pins the pool contract the zero-allocation guards rely
// on: a reserved working set never misses, Get takes the smallest free
// buffer that fits (so small messages leave the large reserved buffers
// alone), and a buffer allocated before the reservation that covers it
// is adopted instead of counting as a miss.
func TestPoolReserve(t *testing.T) {
	var p dist.Pool[float64]
	p.Reserve(1, 100)
	p.Reserve(3, 10) // the 100-float buffer counts toward these
	small1, small2 := p.Get(10), p.Get(10)
	large := p.Get(100)
	if cap(large) < 100 || cap(small1) >= 100 || cap(small2) >= 100 {
		t.Fatalf("best fit broken: caps %d %d %d", cap(small1), cap(small2), cap(large))
	}
	if st := p.Stats(); st.Misses != 0 || st.Gets != 3 {
		t.Fatalf("reserved working set: %+v, want 0 misses of 3 gets", st)
	}
	p.Put(small1)
	p.Put(small2)
	p.Put(large)

	var q dist.Pool[float64]
	early := q.Get(50) // before any reservation: a miss...
	if q.Stats().Misses != 1 {
		t.Fatalf("unreserved get: %+v, want 1 miss", q.Stats())
	}
	q.Reserve(2, 50) // ...that the reservation adopts, adding one buffer
	if q.Stats().Misses != 0 {
		t.Fatalf("reservation did not adopt the early buffer: %+v", q.Stats())
	}
	q.Put(early)
	a, b := q.Get(50), q.Get(50)
	if st := q.Stats(); st.Misses != 0 || cap(a) < 50 || cap(b) < 50 {
		t.Fatalf("adopted working set: %+v", st)
	}
}
