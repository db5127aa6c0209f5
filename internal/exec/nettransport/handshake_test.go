package nettransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
)

// TestHubRefusesOlderWireVersion: a version-7 node must be turned away at the
// handshake with the "wire version" diagnostic. Version 7 still had batch
// frames: attached, such a node could send one, which this reader would take
// for data addressed to processor 0xfffffffa.
func TestHubRefusesOlderWireVersion(t *testing.T) {
	const older = 7
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
	// A well-formed hello for processor 1, stamped with the older version.
	buf := binary.BigEndian.AppendUint32(nil, magic)
	buf = binary.BigEndian.AppendUint16(buf, older)
	buf = binary.BigEndian.AppendUint64(buf, 7)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, 1)
	buf = append(appendString(buf, ""), 0)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	_, _, err = readHelloReply(bufio.NewReader(c))
	want := fmt.Sprintf("wire version %d, want %d", older, wireVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("hello of version %d got %v, want a %q rejection", older, err, want)
	}
}

// FuzzHello feeds arbitrary bytes to the handshake parsers — a node's or a
// joining member's hello, a peer hello and the hub's reply. Each must
// return a value or an error, never panic; and a hello that parses must
// survive re-encoding.
func FuzzHello(f *testing.F) {
	for _, h := range []hello{
		{fingerprint: 7, procs: []arch.ProcID{1, 2}, dataAddr: "127.0.0.1:9"},
		{fingerprint: 7, procs: []arch.ProcID{3}, dataAddr: "unix:/tmp/p", shmToHub: "/dev/shm/a", shmFromHub: "/dev/shm/b"},
		{name: "w1"},
		{name: "node007"},
	} {
		var b bytes.Buffer
		writeHello(&b, h)
		f.Add(b.Bytes())
	}
	for _, shm := range []string{"", "/dev/shm/r"} {
		var b bytes.Buffer
		writePeerHello(&b, 7, shm)
		f.Add(b.Bytes())
	}
	for _, msg := range []string{"", "no processors claimed", `serve: worker "w1" already joined`} {
		var b bytes.Buffer
		writeHelloReply(&b, msg, true)
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reader := func() *bufio.Reader { return bufio.NewReader(bytes.NewReader(data)) }
		readPeerHello(reader(), 7)
		readHelloReply(reader())
		h, err := readHello(reader())
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := writeHello(&b, h); err != nil {
			t.Fatalf("parsed hello %+v does not re-encode: %v", h, err)
		}
		if h2, err := readHello(bufio.NewReader(&b)); err != nil || !reflect.DeepEqual(h, h2) {
			t.Fatalf("hello %+v re-parsed as %+v (%v)", h, h2, err)
		}
	})
}
