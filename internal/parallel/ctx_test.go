package parallel

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLinkContextCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cc Canceler
	stop := LinkContext(ctx, &cc)
	defer stop()

	if cc.Canceled() {
		t.Fatal("canceled before ctx ended")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !cc.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("canceler never fired after ctx cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("reason = %v, want context.Canceled", err)
	}
}

func TestLinkContextDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var cc Canceler
	stop := LinkContext(ctx, &cc)
	defer stop()

	deadline := time.Now().Add(2 * time.Second)
	for !cc.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("canceler never fired after ctx deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cc.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("reason = %v, want context.DeadlineExceeded", err)
	}
}

func TestLinkContextStopReleasesWithoutCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cc Canceler
	stop := LinkContext(ctx, &cc)
	stop() // watcher released; later ctx cancellation must not touch cc
	cancel()
	time.Sleep(5 * time.Millisecond)
	if cc.Canceled() {
		t.Fatal("canceler fired after stop")
	}
}

func TestLinkContextBackgroundIsNoop(t *testing.T) {
	var cc Canceler
	stop := LinkContext(context.Background(), &cc)
	stop()
	if cc.Canceled() {
		t.Fatal("background context canceled the canceler")
	}
	// nil canceler and nil ctx must not panic either.
	LinkContext(context.Background(), nil)()
}

func TestLinkContextCancelAbortsFor(t *testing.T) {
	// A linked canceler actually drains a running For region: the
	// body spins until cancellation, so the dispatch only returns because
	// the context fired.
	ctx, cancel := context.WithCancel(context.Background())
	var cc Canceler
	stop := LinkContext(ctx, &cc)
	defer stop()

	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	doneCh := make(chan struct{})
	go func() {
		For(&cc, 64, 4, func(lo, hi int) {
			for !cc.Canceled() {
				time.Sleep(100 * time.Microsecond)
			}
		})
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("For did not drain after linked context cancel")
	}
}
