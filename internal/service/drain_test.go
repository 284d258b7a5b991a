// Unit tests of the graceful-drain path: running jobs stop issuing and
// checkpoint through Drainer, queued jobs finish without ever starting,
// admission closes, and jobs whose last step already issued complete
// normally. The op2-level end-to-end (drain mid-airfoil, restart,
// bitwise resume) lives in op2's drain test.
package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"op2hpx/internal/service"
)

// drainableInst is a fakeInst that also implements service.Drainer,
// recording how often the control plane asked it to checkpoint.
type drainableInst struct {
	*fakeInst
	mu     sync.Mutex
	drains int
}

func (d *drainableInst) DrainCheckpoint() error {
	d.mu.Lock()
	d.drains++
	d.mu.Unlock()
	return nil
}

func (d *drainableInst) drained() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drains
}

// TestDrainStopsRunningJob: a mid-run job stops issuing, its in-flight
// steps retire, DrainCheckpoint runs exactly once before Close, and the
// verdict is a typed, non-retried ErrDrained classified as canceled.
func TestDrainStopsRunningJob(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close() //nolint:errcheck

	di := &drainableInst{fakeInst: &fakeInst{issueCh: make(chan *fakeFuture, 64)}}
	j, err := svc.Submit(context.Background(), service.Spec{
		Name: "longhaul", Iters: 1000, MaxInFlightSteps: 3,
		Start: func(context.Context) (service.Instance, error) { return di, nil },
		// A generous retry budget the drain must NOT draw on.
		Retry: service.RetryPolicy{MaxAttempts: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job reach its in-flight cap so the drain has steps to wait out.
	inflight := make([]*fakeFuture, 0, 3)
	for len(inflight) < 3 {
		inflight = append(inflight, <-di.issueCh)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- svc.Drain(context.Background()) }()
	// Resolve only once admission has closed: the scheduler checks the
	// drain flag before it issues, so a step slot freed earlier would be
	// refilled with a step nobody resolves. A probe accepted before the
	// flip is a one-step auto job the drain waits out harmlessly.
	for {
		_, err := svc.Submit(context.Background(), service.Spec{Name: "probe", Iters: 1, Start: startOf(&fakeInst{auto: true})})
		if errors.Is(err, service.ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// The drain waits for the in-flight steps; resolve them cleanly.
	for _, f := range inflight {
		f.resolve(nil)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	waitDone(t, j)

	st := j.Status()
	if !errors.Is(st.Err, service.ErrDrained) {
		t.Fatalf("verdict = %v, want ErrDrained", st.Err)
	}
	if !st.Canceled {
		t.Fatalf("drained job classified as failed, want canceled: %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("drain consumed %d retries, want 0", st.Retries)
	}
	if got := di.drained(); got != 1 {
		t.Fatalf("DrainCheckpoint ran %d times, want 1", got)
	}
	if closed, _ := di.state(); !closed {
		t.Fatal("instance not closed after drain")
	}
	if st.Retired != 3 {
		t.Fatalf("retired %d steps, want the 3 in flight", st.Retired)
	}
}

// TestDrainQueuedAndAdmission: jobs still waiting for a residency slot
// finish with ErrDrained without their Start ever running, and Submit
// during a drain rejects with ErrClosed.
func TestDrainQueuedAndAdmission(t *testing.T) {
	svc := service.New(service.Config{MaxResidentJobs: 1})
	defer svc.Close() //nolint:errcheck
	ctx := context.Background()

	// The blocker's Iters is out of reach, so it can only end by the
	// drain, however late the Drain goroutine below gets to run.
	blocker := &fakeInst{issueCh: make(chan *fakeFuture, 64)}
	jb, err := svc.Submit(ctx, service.Spec{Name: "blocker", Iters: 1 << 30, MaxInFlightSteps: 1, Start: startOf(blocker)})
	if err != nil {
		t.Fatal(err)
	}
	fut := <-blocker.issueCh // blocker is resident and mid-run
	// Every later step resolves as soon as it issues, as on a real
	// runtime: the scheduler may issue step 2 before Drain flips the
	// drain flag, and Drain then waits for that step to retire.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case f := <-blocker.issueCh:
				f.resolve(nil)
			case <-stop:
				return
			}
		}
	}()

	started := make(chan struct{}, 1)
	jq, err := svc.Submit(ctx, service.Spec{
		Name: "waiter", Iters: 1,
		Start: func(context.Context) (service.Instance, error) {
			started <- struct{}{}
			return &fakeInst{auto: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- svc.Drain(ctx) }()
	fut.resolve(nil)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	waitDone(t, jq)
	waitDone(t, jb)

	if st := jq.Status(); !errors.Is(st.Err, service.ErrDrained) {
		t.Fatalf("queued job verdict = %v, want ErrDrained", st.Err)
	}
	select {
	case <-started:
		t.Fatal("queued job's Start ran during a drain")
	default:
	}
	if !errors.Is(jb.Status().Err, service.ErrDrained) {
		t.Fatalf("blocker verdict = %v, want ErrDrained", jb.Status().Err)
	}

	if _, err := svc.Submit(ctx, service.Spec{Name: "late", Iters: 1, Start: startOf(&fakeInst{auto: true})}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("Submit during drain = %v, want ErrClosed", err)
	}
}

// TestDrainLetsFullyIssuedJobComplete: a job whose last step already
// issued is past the drain's cut — its futures resolve, Finalize runs,
// and the verdict is success, not ErrDrained.
func TestDrainLetsFullyIssuedJobComplete(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close() //nolint:errcheck
	ctx := context.Background()

	fi := &fakeInst{issueCh: make(chan *fakeFuture, 4), result: "done"}
	j, err := svc.Submit(ctx, service.Spec{Name: "tail", Iters: 2, MaxInFlightSteps: 4, Start: startOf(fi)})
	if err != nil {
		t.Fatal(err)
	}
	futs := []*fakeFuture{<-fi.issueCh, <-fi.issueCh} // both steps issued

	drainErr := make(chan error, 1)
	go func() { drainErr <- svc.Drain(ctx) }()
	for _, f := range futs {
		f.resolve(nil)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	waitDone(t, j)

	res, err := j.Result(ctx)
	if err != nil {
		t.Fatalf("fully issued job drained to %v, want clean completion", err)
	}
	if res != "done" {
		t.Fatalf("result = %v", res)
	}
}

// TestDrainTimeout: a drain whose jobs cannot quiesce in time returns
// the caller's context error instead of hanging.
func TestDrainTimeout(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close() //nolint:errcheck

	fi := &fakeInst{issueCh: make(chan *fakeFuture, 64)}
	if _, err := svc.Submit(context.Background(), service.Spec{Name: "stuck", Iters: 100, Start: startOf(fi)}); err != nil {
		t.Fatal(err)
	}
	<-fi.issueCh // in flight, never resolved

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
}
