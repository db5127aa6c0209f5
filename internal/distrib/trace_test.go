package distrib

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"skipper/internal/obsv"
)

// runTraced executes the tracking spec with tracing armed on the named
// transport (mem = one in-process machine; tcp/unix/shm = hub plus
// in-process goroutine node clients over real sockets on the named data
// plane, each process-alike writing its own trace file), optionally with
// the itermem loop software-pipelined at full depth, and returns the
// merged deployment trace.
func runTraced(t *testing.T, transport string, iters int, pipeline bool) *obsv.Trace {
	t.Helper()
	sp := trackingSpec(iters)
	sp.TraceDir = t.TempDir()
	// The pipeline cuts at every farm boundary, the maximum stage count the
	// schedule admits (DESIGN.md §7).
	sp.Pipeline = pipeline
	switch transport {
	case "mem":
		if _, _, err := RunInProcess(sp, time.Minute); err != nil {
			t.Fatal(err)
		}
	case "tcp", "unix", "shm":
		listen := "127.0.0.1:0"
		if transport != "tcp" {
			var cleanup func()
			var lerr error
			listen, cleanup, lerr = HubListenAddr(transport)
			if lerr != nil {
				t.Fatal(lerr)
			}
			defer cleanup()
			sp.DataPlane = transport
		}
		errCh := make(chan error, sp.Procs-1)
		spawn := func(addr string, _ func(error)) error {
			for p := 1; p < sp.Procs; p++ {
				go func(p int) {
					errCh <- RunNode(sp, p, addr, time.Minute)
				}(p)
			}
			return nil
		}
		if _, _, err := RunCoordinator(sp, listen, spawn, time.Minute); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < sp.Procs; i++ {
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	tr, err := obsv.LoadDir(sp.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceCompleteness is the event-pairing gate across every data plane
// and under full-depth pipelining: in a clean run every recorded send must
// have a matching receive (same message key, transport-wide) and every
// op-start a matching op-end — nothing the executive injected may vanish
// from the trace.
func TestTraceCompleteness(t *testing.T) {
	cases := []struct {
		name      string
		transport string
		pipeline  bool
	}{
		{"mem", "mem", false},
		{"tcp", "tcp", false},
		{"unix", "unix", false},
		{"shm", "shm", false},
		{"mem-pipeline", "mem", true},
		{"shm-pipeline", "shm", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := runTraced(t, tc.transport, 6, tc.pipeline)
			if len(tr.Events) == 0 {
				t.Fatal("trace is empty")
			}
			if tr.Dropped != 0 {
				t.Fatalf("%d events dropped to ring wrap; completeness unverifiable", tr.Dropped)
			}

			sends := map[string]int{}
			recvs := map[string]int{}
			starts := map[string]int{}
			ends := map[string]int{}
			var nAbort int
			for _, ev := range tr.Events {
				l := tr.Label(ev.Label)
				switch ev.Kind {
				case obsv.EvSend:
					sends[l]++
				case obsv.EvRecv:
					recvs[l]++
				case obsv.EvOpStart:
					starts[l]++
				case obsv.EvOpEnd:
					ends[l]++
				case obsv.EvAbort:
					nAbort++
				}
			}
			if nAbort != 0 {
				t.Fatalf("clean run recorded %d abort events", nAbort)
			}
			if len(sends) == 0 || len(starts) == 0 {
				t.Fatalf("trace has %d send keys, %d op labels; instrumentation missing a layer", len(sends), len(starts))
			}
			for l, n := range sends {
				if recvs[l] != n {
					t.Errorf("key %s: %d sends but %d recvs", l, n, recvs[l])
				}
			}
			for l, n := range recvs {
				if sends[l] != n {
					t.Errorf("key %s: %d recvs but %d sends", l, n, sends[l])
				}
			}
			for l, n := range starts {
				if ends[l] != n {
					t.Errorf("op %s: %d starts but %d ends", l, n, ends[l])
				}
			}
			spans := tr.OpSpans()
			var nStarts int
			for _, n := range starts {
				nStarts += n
			}
			if len(spans) != nStarts {
				t.Errorf("paired %d op spans from %d starts", len(spans), nStarts)
			}
			if tc.pipeline {
				var nHand int
				for _, ev := range tr.Events {
					if ev.Kind == obsv.EvStageHand {
						nHand++
					}
				}
				if nHand == 0 {
					t.Error("pipelined run recorded no stage hand-off events")
				}
			}
		})
	}
}

// TestTracedRunsStayIdentical pins that arming the recorder does not
// perturb the computation: traced mem and tcp runs still produce
// bit-identical tracking results.
func TestTracedRunsStayIdentical(t *testing.T) {
	sp := trackingSpec(6)
	plainRec, _, err := RunInProcess(sp, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	traced := sp
	traced.TraceDir = t.TempDir()
	tracedRec, _, err := RunInProcess(traced, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := resultsEqual(plainRec.Results, tracedRec.Results); !ok {
		t.Fatalf("tracing perturbed the computation: %s", diff)
	}
}

// setNonZero gives every leaf field of a struct a distinct non-zero value,
// by reflection, so a round-trip test covers fields added after it was
// written.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i+1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Struct:
			setNonZero(t, f)
		default:
			t.Fatalf("field %s: kind %s not handled by the round-trip test", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestSpecMetaRoundTrip pins that a trace carries enough metadata to
// recompile the deployment it was recorded under (skipper-trace -compare,
// -skew): every Job field survives, whatever fields Job has.
func TestSpecMetaRoundTrip(t *testing.T) {
	var sp Spec
	setNonZero(t, reflect.ValueOf(&sp.Job).Elem())
	got, err := SpecFromMeta(sp.TraceMeta())
	if err != nil {
		t.Fatal(err)
	}
	want := sp // TraceDir/DebugAddr are process-local and not in the meta
	if got != want {
		t.Fatalf("meta round trip: %+v != %+v", got, want)
	}
	if _, err := SpecFromMeta(nil); err == nil {
		t.Fatal("empty meta accepted")
	}
	if _, err := SpecFromMeta(map[string]string{"app": "other"}); err == nil {
		t.Fatal("foreign app meta accepted")
	}
	if _, err := SpecFromMeta(map[string]string{"app": "tracking", "spec": "{"}); err == nil {
		t.Fatal("malformed spec meta accepted")
	}
}

// TestWorkerFlightDumpCarriesEndedAssignment pins the worker flight's
// companion traces against the dump's asynchrony: a fault recorded in a
// traced assignment's own ring triggers the dump, but the fault also ends
// the assignment, which has usually left the active set before the dump
// goroutine collects the companions. The artifact must still carry the
// assignment's timeline — the flight ring itself is empty — fault included.
func TestWorkerFlightDumpCarriesEndedAssignment(t *testing.T) {
	w := &Worker{name: "w1", active: map[string]*assignment{}}
	w.EnableFlight(t.TempDir())
	defer w.flight.Close()

	rec := obsv.NewRecorder(2, 0)
	w.active["j1"] = &assignment{rec: rec}
	rec.Record(1, obsv.EvOpStart, rec.Intern("detect_mark"), -1, 0)
	rec.Record(1, obsv.EvPeerDown, 0, 0, 0)
	w.retire("j1", rec.Snapshot())

	dump, err := w.flight.Dump(obsv.EvPeerDown)
	if err != nil || len(dump) == 0 {
		t.Fatalf("dump after the assignment ended wrote %v (err %v)", dump, err)
	}
	tr, err := obsv.ReadFile(dump[0])
	if err != nil {
		t.Fatal(err)
	}
	var sawFault bool
	for _, ev := range tr.Events {
		sawFault = sawFault || ev.Kind == obsv.EvPeerDown
	}
	if !sawFault {
		t.Fatalf("flight artifact has %d events and no fault: the ended assignment's timeline was dropped", len(tr.Events))
	}

	// An untraced assignment ships no trace and must not displace it.
	w.retire("j2", nil)
	if got := w.activeTraces(); len(got) != 1 {
		t.Fatalf("activeTraces() = %d traces after an untraced assignment ended, want the 1 kept", len(got))
	}
}
