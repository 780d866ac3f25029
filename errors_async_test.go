package quasaq

import (
	"errors"
	"testing"
	"time"
)

// TestSyncEntryPointsUnderAsyncControl pins the error contract: once the
// control plane has latency, every synchronous entry point fails with
// ErrAsyncControl — and the continuation-passing counterparts still work.
func TestSyncEntryPointsUnderAsyncControl(t *testing.T) {
	db := openLoaded(t, Options{Control: TestbedControlPlane()})
	// An established delivery to renegotiate, admitted through the async
	// path; a second of virtual time settles the control round trips
	// without finishing the 30 s stream.
	var d *Delivery
	db.DeliverAsync("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF},
		func(nd *Delivery, err error) {
			if err != nil {
				t.Errorf("async admission failed: %v", err)
			}
			d = nd
		})
	db.Advance(time.Second)
	if d == nil {
		t.Fatal("DeliverAsync never settled")
	}

	cases := []struct {
		name string
		call func() error
	}{
		{"Deliver", func() error {
			_, err := db.Deliver("srv-b", 2, Requirement{MinResolution: ResVCD})
			return err
		}},
		{"Renegotiate", func() error {
			_, err := db.Renegotiate(d, Requirement{MaxResolution: ResQCIF})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, ErrAsyncControl) {
				t.Fatalf("%s under async control: err = %v, want ErrAsyncControl", tc.name, err)
			}
		})
	}

	// The async counterpart of Renegotiate succeeds where the sync one
	// refused: the stream moves to a cheaper tier mid-playback.
	var nd *Delivery
	var nerr error
	db.RenegotiateAsync(d, Requirement{MaxResolution: ResCIF}, func(rd *Delivery, err error) {
		nd, nerr = rd, err
	})
	db.Advance(time.Second)
	if nerr != nil || nd == nil {
		t.Fatalf("RenegotiateAsync: delivery=%v err=%v", nd, nerr)
	}
	if nd.Plan.Delivered.Resolution.Pixels() > ResCIF.Pixels() {
		t.Fatalf("renegotiated resolution = %v, want at most CIF", nd.Plan.Delivered.Resolution)
	}
	db.RunUntilIdle()
	if !nd.Session.Done() {
		t.Fatal("renegotiated stream did not complete")
	}
}
