package distrib

import (
	"fmt"
	"reflect"
	"testing"

	"skipper/internal/obsv"
)

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
	if want := sp; got != want {
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
