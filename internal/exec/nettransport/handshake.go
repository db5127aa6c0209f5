package nettransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"skipper/internal/arch"
)

// hello is the client side of the control-connection handshake, in one of
// two kinds. A join hello carries only the name a fleet member joins under
// (name != ""). An attach hello identifies the schedule the process was
// compiled against (fingerprint), the processors the process hosts, and the
// address of the process's peer data listener, which the hub folds into the
// cluster address map once every processor is attached. The hub rejects
// mismatched fingerprints — two processes running different deployments of
// "the same" program would otherwise exchange frames that decode into the
// wrong graph edges.
type hello struct {
	name        string
	fingerprint uint64
	procs       []arch.ProcID
	dataAddr    string
	// shmToHub/shmFromHub request the shared-memory upgrade of this control
	// connection (DESIGN.md §9): the client creates both ring segments
	// before saying hello — shmToHub is the ring it will produce into,
	// shmFromHub the one it will consume — and the hub's reply says whether
	// it mapped them. Empty paths mean no upgrade requested.
	shmToHub   string
	shmFromHub string
}

// appendString appends a u16-length-prefixed string to buf.
func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readString reads a u16-length-prefixed string.
func readString(br *bufio.Reader) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.BigEndian.Uint16(lb[:]))
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Hello kinds, the byte after the wire version.
const (
	helloAttach = 0
	helloJoin   = 1
)

func writeHello(c io.Writer, h hello) error {
	buf := binary.BigEndian.AppendUint32(nil, magic)
	buf = binary.BigEndian.AppendUint16(buf, wireVersion)
	if h.name != "" {
		if len(h.name) > 0xffff {
			return fmt.Errorf("nettransport: member name too long")
		}
		_, err := c.Write(appendString(append(buf, helloJoin), h.name))
		return err
	}
	buf = append(buf, helloAttach)
	buf = binary.BigEndian.AppendUint64(buf, h.fingerprint)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.procs)))
	for _, p := range h.procs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	if len(h.dataAddr) > 0xffff {
		return fmt.Errorf("nettransport: data address %q too long", h.dataAddr)
	}
	buf = appendString(buf, h.dataAddr)
	if h.shmToHub != "" {
		buf = append(buf, 1)
		buf = appendString(buf, h.shmToHub)
		buf = appendString(buf, h.shmFromHub)
	} else {
		buf = append(buf, 0)
	}
	_, err := c.Write(buf)
	return err
}

func readHello(br *bufio.Reader) (hello, error) {
	var h hello
	var head [17]byte
	if _, err := io.ReadFull(br, head[:7]); err != nil {
		return h, fmt.Errorf("nettransport: truncated handshake: %w", err)
	}
	if m := binary.BigEndian.Uint32(head[0:]); m != magic {
		return h, fmt.Errorf("nettransport: bad handshake magic %#x", m)
	}
	if v := binary.BigEndian.Uint16(head[4:]); v != wireVersion {
		return h, fmt.Errorf("nettransport: wire version %d, want %d", v, wireVersion)
	}
	switch head[6] {
	case helloJoin:
		name, err := readString(br)
		if err != nil {
			return h, fmt.Errorf("nettransport: truncated join hello: %w", err)
		}
		if name == "" {
			return h, fmt.Errorf("nettransport: join hello without a name")
		}
		h.name = name
		return h, nil
	case helloAttach:
	default:
		return h, fmt.Errorf("nettransport: unknown hello kind %d", head[6])
	}
	if _, err := io.ReadFull(br, head[7:]); err != nil {
		return h, fmt.Errorf("nettransport: truncated handshake: %w", err)
	}
	h.fingerprint = binary.BigEndian.Uint64(head[7:])
	count := binary.BigEndian.Uint16(head[15:])
	h.procs = make([]arch.ProcID, count)
	for i := range h.procs {
		var pb [4]byte
		if _, err := io.ReadFull(br, pb[:]); err != nil {
			return h, fmt.Errorf("nettransport: truncated handshake procs: %w", err)
		}
		h.procs[i] = arch.ProcID(binary.BigEndian.Uint32(pb[:]))
	}
	addr, err := readString(br)
	if err != nil {
		return h, fmt.Errorf("nettransport: truncated handshake data address: %w", err)
	}
	h.dataAddr = addr
	flag, err := br.ReadByte()
	if err != nil {
		return h, fmt.Errorf("nettransport: truncated handshake shm flag: %w", err)
	}
	if flag != 0 {
		if h.shmToHub, err = readString(br); err != nil {
			return h, fmt.Errorf("nettransport: truncated handshake shm path: %w", err)
		}
		if h.shmFromHub, err = readString(br); err != nil {
			return h, fmt.Errorf("nettransport: truncated handshake shm path: %w", err)
		}
		if h.shmToHub == "" || h.shmFromHub == "" {
			return h, fmt.Errorf("nettransport: handshake requests the shm upgrade without both ring paths")
		}
	}
	return h, nil
}

// writeHelloReply acknowledges (msg == "") or rejects a handshake. The
// accept branch carries the hub's wall clock (UnixNano at reply time) —
// the client brackets the handshake with its own wall-clock reads and
// derives an NTP-style offset onto the hub's clock, which trace merging
// uses to place every process's events on one timeline — plus a byte
// saying whether the hub mapped the hello's shm rings: the client falls
// back to the plain socket when it is 0, so a mapping failure on either
// end degrades instead of wedging the attach.
func writeHelloReply(c io.Writer, msg string, shmOK bool) error {
	if msg == "" {
		buf := append([]byte{0}, make([]byte, 9)...)
		binary.BigEndian.PutUint64(buf[1:], uint64(time.Now().UnixNano()))
		if shmOK {
			buf[9] = 1
		}
		_, err := c.Write(buf)
		return err
	}
	buf := []byte{1}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	_, err := c.Write(buf)
	return err
}

// readHelloReply returns the hub's wall clock (UnixNano) and whether the
// shm upgrade was accepted.
func readHelloReply(br *bufio.Reader) (int64, bool, error) {
	status, err := br.ReadByte()
	if err != nil {
		return 0, false, fmt.Errorf("nettransport: no handshake reply: %w", err)
	}
	if status == 0 {
		var tb [9]byte
		if _, err := io.ReadFull(br, tb[:]); err != nil {
			return 0, false, fmt.Errorf("nettransport: truncated handshake reply: %w", err)
		}
		return int64(binary.BigEndian.Uint64(tb[:8])), tb[8] != 0, nil
	}
	var lb [2]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return 0, false, fmt.Errorf("nettransport: handshake rejected (reason lost: %v)", err)
	}
	msg := make([]byte, binary.BigEndian.Uint16(lb[:]))
	if _, err := io.ReadFull(br, msg); err != nil {
		return 0, false, fmt.Errorf("nettransport: handshake rejected (reason lost: %v)", err)
	}
	return 0, false, fmt.Errorf("nettransport: handshake rejected: %s", msg)
}

// writePeerHello opens a data-plane connection between two nodes. The
// fingerprint was already validated when both ends attached to the hub, so
// the receiving node just drops connections whose preamble does not match.
// shmPath, when non-empty, names a ring segment the dialer created and
// will produce into (peer connections are unidirectional) — the upgrade
// request adds the only reply a peer handshake has: one ack byte saying
// whether the acceptor mapped the ring (peerShmAck) or the connection
// stays on the socket (peerShmNak). Plain hellos still get no reply.
func writePeerHello(c io.Writer, fingerprint uint64, shmPath string) error {
	buf := binary.BigEndian.AppendUint32(nil, magic)
	buf = binary.BigEndian.AppendUint16(buf, wireVersion)
	buf = binary.BigEndian.AppendUint64(buf, fingerprint)
	if shmPath != "" {
		buf = append(buf, 1)
		buf = appendString(buf, shmPath)
	} else {
		buf = append(buf, 0)
	}
	_, err := c.Write(buf)
	return err
}

const (
	peerShmAck = 0 // acceptor mapped the ring; frames move to shm
	peerShmNak = 1 // mapping failed; both ends stay on the socket
)

func readPeerHello(br *bufio.Reader, fingerprint uint64) (shmPath string, err error) {
	var head [15]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return "", fmt.Errorf("nettransport: truncated peer handshake: %w", err)
	}
	if m := binary.BigEndian.Uint32(head[0:]); m != magic {
		return "", fmt.Errorf("nettransport: bad peer handshake magic %#x", m)
	}
	if v := binary.BigEndian.Uint16(head[4:]); v != wireVersion {
		return "", fmt.Errorf("nettransport: peer wire version %d, want %d", v, wireVersion)
	}
	if fp := binary.BigEndian.Uint64(head[6:]); fp != fingerprint {
		return "", fmt.Errorf("nettransport: peer fingerprint %#x, want %#x", fp, fingerprint)
	}
	if head[14] != 0 {
		if shmPath, err = readString(br); err != nil {
			return "", fmt.Errorf("nettransport: truncated peer shm path: %w", err)
		}
	}
	return shmPath, nil
}

// encodeProcs serializes the processor list carried by a peerDownDst
// control frame: {u16 count, u32 processor...}.
func encodeProcs(procs []arch.ProcID) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(len(procs)))
	for _, p := range procs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

func parseProcs(payload []byte) ([]arch.ProcID, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("nettransport: truncated processor list")
	}
	count := int(binary.BigEndian.Uint16(payload))
	if len(payload) != 2+4*count {
		return nil, fmt.Errorf("nettransport: processor list length %d, want %d entries", len(payload), count)
	}
	procs := make([]arch.ProcID, count)
	for i := range procs {
		procs[i] = arch.ProcID(binary.BigEndian.Uint32(payload[2+4*i:]))
	}
	return procs, nil
}

// encodePeers serializes the cluster address map carried by a peersDst
// control frame: {u32 processor, u16 len, addr} per attached processor.
// A node sends to any processor the map does not list over its control
// connection: the hub delivers to the processors it hosts, drops frames for
// departed or dead ones, and relays nothing.
func encodePeers(m map[arch.ProcID]string) []byte {
	buf := binary.BigEndian.AppendUint16(nil, uint16(len(m)))
	for p, addr := range m {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(addr)))
		buf = append(buf, addr...)
	}
	return buf
}

func parsePeers(payload []byte) (map[arch.ProcID]string, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("nettransport: truncated peers map")
	}
	count := int(binary.BigEndian.Uint16(payload))
	pos := 2
	m := make(map[arch.ProcID]string, count)
	for i := 0; i < count; i++ {
		if len(payload)-pos < 6 {
			return nil, fmt.Errorf("nettransport: truncated peers map entry")
		}
		p := arch.ProcID(binary.BigEndian.Uint32(payload[pos:]))
		n := int(binary.BigEndian.Uint16(payload[pos+4:]))
		pos += 6
		if len(payload)-pos < n {
			return nil, fmt.Errorf("nettransport: truncated peers map address")
		}
		m[p] = string(payload[pos : pos+n])
		pos += n
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("nettransport: %d trailing bytes in peers map", len(payload)-pos)
	}
	return m, nil
}
