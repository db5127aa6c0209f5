package nettransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
)

// TestHubRefusesOlderWireVersion: a node of the previous wire version must
// be turned away at the handshake with the "wire version" diagnostic. The
// bump to 7 changed no frame, only the farm protocol: attached, a version-6
// worker would wait for the per-frame sentinels a version-7 master no longer
// sends, and the run would hang until the watchdog.
func TestHubRefusesOlderWireVersion(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", arch.Ring(2), 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c, err := net.DialTimeout("tcp", hub.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	// A well-formed hello for processor 1, stamped with the previous version.
	buf := binary.BigEndian.AppendUint32(nil, magic)
	buf = binary.BigEndian.AppendUint16(buf, wireVersion-1)
	buf = binary.BigEndian.AppendUint64(buf, 7)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 1)
	buf = append(appendString(buf, ""), 0)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	_, _, err = readHelloReply(bufio.NewReader(c))
	want := fmt.Sprintf("wire version %d, want %d", wireVersion-1, wireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("hello of the previous version got %v, want a %q rejection", err, want)
	}
}
