package nettransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Shared-memory slab ring: the third same-host data plane (DESIGN.md §9).
// The unix-domain transport's remaining cost is the kernel itself — the raw
// socketpair floor (floor_bench_test.go) is ~8µs per 32KB ping-pong, on
// copies and wakeups no userspace framing can avoid. The shm
// plane removes the kernel from the frame path entirely: each upgraded
// connection maps a tmpfs file holding a fixed-slot slab ring
// (single-producer/single-consumer, atomic head/tail slot counters), the
// producer writes every frame's wire image straight into the slab, and the
// consumer parses it with the exact same frame/stream-decode machinery
// that reads a socket — the ring's consumer side is an io.Reader, so a
// bufio.Reader over it is indistinguishable from a bufio.Reader over a
// net.Conn to the rest of the backend. The socket the connection started on
// is kept as the doorbell: after the shm handshake it carries only wakeup
// bytes (data-available toward the consumer, slots-available toward the
// producer), and its EOF remains the death signal, so fault containment is
// unchanged — a dead peer's socket closes, the bell loop marks the ring
// closed, and a producer blocked on a full ring unwedges with an error that
// feeds the same MarkPeerDown/containment path a failed socket write does.
//
// Record format inside the slab: records start on a slot (cache line)
// boundary — [u32 length][length bytes of frame stream], padded to the next
// slot. A record never wraps: the producer sizes each record's chunk to the
// contiguous slots left before the ring's end, so both cursors stay simple
// monotonic slot counters. Records chunk the byte stream arbitrarily (a
// frame may span records, a record may hold several small frames); frame
// boundaries come from the frame stream's own length prefixes, exactly as
// on a socket.

const (
	// shmMagic opens every ring header: "SKRING1\0".
	shmMagic = 0x534b52494e473100
	// shmHdrSize is the header page; slab slots start right after it.
	shmHdrSize = 4096
	// shmSlotSize is one slot: a cache line, the unit of cursor arithmetic.
	shmSlotSize = 64
	// shmDefaultSlots sizes a ring at 1Ki slots = 64KB of slab per
	// direction. Deliberately small: both cursors march through the slab, so
	// a slab that fits L2 keeps every record copy on warm cache lines — the
	// 4MiB first cut measured ~2x slower per round trip purely on cache
	// misses. Frames larger than the slab stream through it in chunks; the
	// producer blocks only while the consumer lags a full slab behind.
	shmDefaultSlots = 1 << 10
	// shmChunkMax caps a single record's payload so a giant frame releases
	// slots incrementally instead of holding the whole ring hostage.
	shmChunkMax = 1 << 20

	// Header field offsets. Producer- and consumer-written fields sit on
	// separate cache lines so cursor updates never false-share.
	shmOffMagic     = 0   // u64, creator-written
	shmOffSlots     = 8   // u64, creator-written
	shmOffTail      = 64  // u64, producer cursor: slots published
	shmOffProdSleep = 128 // u32, producer armed the doorbell (ring full)
	shmOffHead      = 192 // u64, consumer cursor: slots consumed
	shmOffConsSleep = 256 // u32, consumer armed the doorbell (ring empty)
	shmOffClosed    = 320 // u32, either side is gone; set once, never cleared
	shmOffLocal     = 384 // u32, the opener lives in the creator's process

	// shmSpinWait bounds the consumer's pre-sleep spin. An empty ring spins
	// this long before arming the doorbell and blocking: in a busy exchange
	// the next frame lands well inside the window, so the cross-process
	// steady state does zero syscalls — the whole point of the plane.
	shmSpinWait = 40 * time.Microsecond
	// shmFullSpin bounds the producer's pre-sleep spin on a full ring
	// (rare: the consumer drains into unbounded mailboxes).
	shmFullSpin = 10 * time.Microsecond
	// shmPollInterval is the blocked waiters' fallback re-check period —
	// insurance against a lost doorbell byte, never the primary wakeup.
	shmPollInterval = 10 * time.Millisecond

	// shmReadBufSize sizes the bufio.Reader over an upgraded connection.
	// A socket's 8KB buffer amortizes read syscalls; ring reads cost no
	// syscall at all, and a big buffer only double-copies payload bytes
	// (fill from the ring, copy out again on the next large ReadFull), so
	// the shm reader keeps just enough for frame headers and control frames —
	// large payload reads bypass it and drain the ring directly.
	shmReadBufSize = 1 << 10
)

// shmSpin gates the pre-sleep spin: on a single-CPU machine a spinning
// consumer only steals the producer's timeslice (Gosched round-robins
// through every runnable goroutine), so blocking immediately is strictly
// better there.
var shmSpin = runtime.NumCPU() > 1

// shmSeq disambiguates ring segment names minted by one process.
var shmSeq atomic.Int64

// ringBells is the in-process fast path for a ring's wakeups. The creator
// registers a pair of cap-1 channels under the segment path; an opener in
// the same process (the in-process deployments every test harness and the
// bench pair run) finds them in the registry, marks the ring local in its
// header, and from then on both ends signal through the channels — a ~20ns
// nonblocking send — instead of the socket doorbell's syscall round trip.
// A true cross-process opener misses the registry (it is per-process) and
// both ends stay on the socket doorbell.
type ringBells struct {
	data  chan struct{} // producer → consumer: a record was published
	space chan struct{} // consumer → producer: slots were released
}

var shmBells sync.Map // segment path → *ringBells

// shmDir picks where ring segments live: the tmpfs mount when the platform
// has one (pages never touch a disk), the short temp dir otherwise.
func shmDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return shortTempDir()
}

// shmRingPath mints a fingerprint-checked segment name. The fingerprint
// keeps deployments apart the same way the peer hello does — a process
// cannot be handed a ring minted for a different schedule without the
// mismatch being visible in the name — and the pid+sequence keeps names
// unique within a host. Kept short: segment names travel through the same
// handshake fields as socket paths.
func shmRingPath(fingerprint uint64) string {
	return fmt.Sprintf("%s/skr-%08x-%d-%d", shmDir(),
		uint32(fingerprint^(fingerprint>>32)), os.Getpid(), shmSeq.Add(1))
}

// shmRing is one mapped direction of a connection: a fixed-slot SPSC slab.
// One process holds the producer role, the other the consumer role; both
// embed the ring in an shmConn, which supplies the blocking protocol.
type shmRing struct {
	path  string
	mem   []byte // the full mapping: header page + slab
	slots uint64
	// bells is non-nil on the creator (registered) and on a same-process
	// opener (found in the registry); nil on a cross-process opener. Used
	// for wakeups only when the shared local flag confirms both ends hold it.
	bells *ringBells
	// recOff is consumer-local: bytes of the current record already yielded
	// to Read (a record larger than the caller's buffer drains over several
	// calls; its slots are released only when the record is done).
	recOff int
}

func (r *shmRing) u64(off int) *uint64 { return (*uint64)(unsafe.Pointer(&r.mem[off])) }
func (r *shmRing) u32(off int) *uint32 { return (*uint32)(unsafe.Pointer(&r.mem[off])) }

// createShmRing creates, sizes and maps a fresh ring segment, initializing
// the header. The creator may hold either role; the header layout is
// symmetric.
func createShmRing(fingerprint uint64, slots uint64) (*shmRing, error) {
	path := shmRingPath(fingerprint)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("nettransport: shm segment: %w", err)
	}
	size := shmHdrSize + int(slots)*shmSlotSize
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("nettransport: sizing shm segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("nettransport: mapping shm segment: %w", err)
	}
	r := &shmRing{path: path, mem: mem, slots: slots,
		bells: &ringBells{data: make(chan struct{}, 1), space: make(chan struct{}, 1)}}
	shmBells.Store(path, r.bells)
	atomic.StoreUint64(r.u64(shmOffSlots), slots)
	atomic.StoreUint64(r.u64(shmOffMagic), shmMagic)
	// Backstop for paths that drop a mapped ring without an explicit close
	// (a detached connection the session never revisits): the address space
	// and tmpfs pages are reclaimed when the ring is collected.
	runtime.SetFinalizer(r, func(fr *shmRing) { fr.unmap() })
	return r, nil
}

// openShmRing maps a ring segment created by the other end of a handshake
// and validates its header.
func openShmRing(path string) (*shmRing, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("nettransport: opening shm segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("nettransport: shm segment: %w", err)
	}
	size := int(st.Size())
	if size < shmHdrSize+shmSlotSize {
		f.Close()
		return nil, fmt.Errorf("nettransport: shm segment %s truncated (%d bytes)", path, size)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("nettransport: mapping shm segment: %w", err)
	}
	r := &shmRing{path: path, mem: mem}
	if m := atomic.LoadUint64(r.u64(shmOffMagic)); m != shmMagic {
		r.unmap()
		return nil, fmt.Errorf("nettransport: shm segment %s: bad magic %#x", path, m)
	}
	// Divide, never multiply: a hostile slot count times the slot size wraps
	// past the mapping size it is checked against.
	r.slots = atomic.LoadUint64(r.u64(shmOffSlots))
	if r.slots == 0 || r.slots > uint64((size-shmHdrSize)/shmSlotSize) {
		r.unmap()
		return nil, fmt.Errorf("nettransport: shm segment %s: slot count %d out of range", path, r.slots)
	}
	if b, ok := shmBells.LoadAndDelete(path); ok {
		// The creator is this very process: share its bell channels and tell
		// it so through the header — wakeups in both directions go through
		// channels from here on, never the socket.
		r.bells = b.(*ringBells)
		atomic.StoreUint32(r.u32(shmOffLocal), 1)
	}
	runtime.SetFinalizer(r, func(fr *shmRing) { fr.unmap() })
	return r, nil
}

// local reports whether both ends of the ring share this process — set by
// the opener at map time when it found the creator's bells in the registry.
func (r *shmRing) local() bool {
	return r.bells != nil && atomic.LoadUint32(r.u32(shmOffLocal)) != 0
}

func (r *shmRing) unmap() {
	if r.mem != nil {
		runtime.SetFinalizer(r, nil)
		shmBells.Delete(r.path)
		syscall.Munmap(r.mem)
		r.mem = nil
	}
}

// remove unlinks the segment name; the mappings live on. Called once both
// ends hold the ring.
func (r *shmRing) remove() { os.Remove(r.path) }

// free reports the unpublished slots (producer side).
func (r *shmRing) free() uint64 {
	tail := atomic.LoadUint64(r.u64(shmOffTail))
	head := atomic.LoadUint64(r.u64(shmOffHead))
	return r.slots - (tail - head)
}

// readable reports whether any published record awaits the consumer.
func (r *shmRing) readable() bool {
	return atomic.LoadUint64(r.u64(shmOffTail)) != atomic.LoadUint64(r.u64(shmOffHead))
}

// closedFlag reports whether either side marked the ring closed.
func (r *shmRing) closedFlag() bool { return atomic.LoadUint32(r.u32(shmOffClosed)) != 0 }

// setClosed marks the ring closed in shared memory, visible to both ends.
func (r *shmRing) setClosed() { atomic.StoreUint32(r.u32(shmOffClosed), 1) }

// tryWrite publishes one record holding a prefix of p, sized to the free
// contiguous slots, and returns how many bytes it took (0 = ring full, the
// caller must wait). Single producer: tail is ours to advance; only head is
// read from the other side.
func (r *shmRing) tryWrite(p []byte) int {
	tail := atomic.LoadUint64(r.u64(shmOffTail))
	head := atomic.LoadUint64(r.u64(shmOffHead))
	free := r.slots - (tail - head)
	if free == 0 {
		return 0
	}
	pos := tail % r.slots
	avail := r.slots - pos // records never wrap: bound by contiguous slots
	if free < avail {
		avail = free
	}
	n := int(avail*shmSlotSize) - 4
	if n > len(p) {
		n = len(p)
	}
	if n > shmChunkMax {
		n = shmChunkMax
	}
	off := shmHdrSize + int(pos)*shmSlotSize
	binary.LittleEndian.PutUint32(r.mem[off:], uint32(n))
	copy(r.mem[off+4:], p[:n])
	used := uint64(4+n+shmSlotSize-1) / shmSlotSize
	// The release store publishes the record bytes before the cursor moves.
	atomic.StoreUint64(r.u64(shmOffTail), tail+used)
	return n
}

// tryRead copies published record bytes into p and returns the count (0 =
// ring empty). Slots are released (head advanced) only when the current
// record is fully drained. Cursors more than a ring apart, or a record that
// does not fit the mapping or the slots published, are a corrupt ring and
// poison it closed.
func (r *shmRing) tryRead(p []byte) int {
	head := atomic.LoadUint64(r.u64(shmOffHead))
	tail := atomic.LoadUint64(r.u64(shmOffTail))
	if tail == head {
		return 0
	}
	pos := head % r.slots
	off := shmHdrSize + int(pos)*shmSlotSize
	n := int(binary.LittleEndian.Uint32(r.mem[off:]))
	used := uint64(4+n+shmSlotSize-1) / shmSlotSize
	if tail-head > r.slots || n <= 0 || off+4+n > len(r.mem) || used > tail-head {
		r.setClosed()
		return 0
	}
	c := copy(p, r.mem[off+4+r.recOff:off+4+n])
	r.recOff += c
	if r.recOff == n {
		r.recOff = 0
		atomic.StoreUint64(r.u64(shmOffHead), head+used)
	}
	return c
}

// shmConn binds a connection's ring(s) to its doorbell socket. A control
// connection holds both directions (in and out); a peer-mesh connection is
// unidirectional and holds one. It implements the wconn's wire on the
// producer side and io.Reader on the consumer side, so the rest of the
// backend cannot tell it from a socket.
type shmConn struct {
	sock net.Conn
	in   *shmRing // consumed here; nil on a produce-only peer connection
	out  *shmRing // produced here; nil on a consume-only peer connection

	inBell  chan struct{}
	outBell chan struct{}

	closed   atomic.Bool
	wdl      atomic.Int64 // write deadline, UnixNano; 0 = none
	bellDone chan struct{}

	// inTimer/outTimer are the cached poll-fallback timers for waitData and
	// waitSpace. Reads are serialized (one bufio.Reader loop) and writes are
	// serialized (the wconn's write lock), so each timer has a single user
	// and the cache keeps blocking waits allocation-free.
	inTimer  *time.Timer
	outTimer *time.Timer

	closeOnce sync.Once
}

func newShmConn(sock net.Conn, in, out *shmRing) *shmConn {
	c := &shmConn{
		sock:     sock,
		in:       in,
		out:      out,
		inBell:   make(chan struct{}, 1),
		outBell:  make(chan struct{}, 1),
		bellDone: make(chan struct{}),
	}
	go c.bellLoop()
	return c
}

// bellLoop owns all reads on the doorbell socket: any byte means "re-check
// your cursors", EOF or error means the other process is gone — frames
// already in the ring stay readable (a clean detach's last frames are in
// flight here), new writes fail.
func (c *shmConn) bellLoop() {
	defer close(c.bellDone)
	var buf [64]byte
	for {
		_, err := c.sock.Read(buf[:])
		if err != nil {
			c.closed.Store(true)
			if c.out != nil {
				c.out.setClosed()
			}
			c.ring(c.inBell)
			c.ring(c.outBell)
			// Local-mode waiters block on the shared bells alone; make the
			// death visible there too.
			if c.in != nil && c.in.bells != nil {
				c.ring(c.in.bells.data)
			}
			if c.out != nil && c.out.bells != nil {
				c.ring(c.out.bells.space)
			}
			return
		}
		c.ring(c.inBell)
		c.ring(c.outBell)
	}
}

func (c *shmConn) ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// doorbell wakes the other end if it armed the given sleep flag. The CAS
// makes each armed sleep cost at most one byte on the socket; an unarmed
// (spinning or busy) peer costs nothing.
func (c *shmConn) doorbell(r *shmRing, flagOff int) {
	if atomic.LoadUint32(r.u32(flagOff)) != 0 &&
		atomic.CompareAndSwapUint32(r.u32(flagOff), 1, 0) {
		c.sock.Write(bellByte) // best effort: a dead socket is handled by bellLoop
	}
}

// bellByte is the doorbell's wake byte: shared and never written, so a ring
// costs no allocation.
var bellByte = []byte{0}

// wakeConsumer signals the ring's consumer after a publish: a nonblocking
// channel send when the peer shares this process, the socket doorbell
// otherwise.
func (c *shmConn) wakeConsumer(r *shmRing) {
	if r.local() {
		c.ring(r.bells.data)
		return
	}
	c.doorbell(r, shmOffConsSleep)
}

// wakeProducer signals the ring's producer after slots were released.
func (c *shmConn) wakeProducer(r *shmRing) {
	if r.local() {
		c.ring(r.bells.space)
		return
	}
	c.doorbell(r, shmOffProdSleep)
}

// pollTimer returns the cached fallback timer, armed; stopPoll must be
// deferred. Neither allocates once the timer exists.
func pollTimer(slot **time.Timer) *time.Timer {
	if *slot == nil {
		*slot = time.NewTimer(shmPollInterval)
	} else {
		(*slot).Reset(shmPollInterval)
	}
	return *slot
}

// stopPoll disarms a poll timer, draining a fire nobody received.
func stopPoll(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// dead reports whether the ring is finished for its blocking waiters:
// locally closed, remotely closed, or poisoned.
func (c *shmConn) dead(r *shmRing) bool {
	return c.closed.Load() || r.closedFlag()
}

// Write copies p into the out ring as one or more records, blocking while
// the ring is full — first a short spin, then armed-doorbell sleep. The
// block mirrors a socket write blocking on a full kernel buffer: it cannot
// deadlock the executive because the consumer drains into unbounded
// mailboxes, and it unwedges with an error the moment the peer dies (bell
// loop EOF) or the write deadline passes (teardown flush).
func (c *shmConn) Write(p []byte) (int, error) {
	if c.dead(c.out) {
		return 0, net.ErrClosed
	}
	total := 0
	for len(p) > 0 {
		n := c.out.tryWrite(p)
		if n == 0 {
			if err := c.waitSpace(); err != nil {
				return total, err
			}
			continue
		}
		total += n
		p = p[n:]
		c.wakeConsumer(c.out)
	}
	return total, nil
}

// writev publishes the gathered buffers with a single consumer wakeup at
// the end. Over the head+tail shape of a payload frame, Write's per-chunk
// wake would bounce a same-process consumer awake after the head record
// just to block again on the missing tail — an extra scheduler handoff per
// message. The one place an interim wake is mandatory is a full ring: the
// consumer must hear about the data already published before the producer
// sleeps waiting for it to drain.
func (c *shmConn) writev(bufs net.Buffers) error {
	if c.dead(c.out) {
		return net.ErrClosed
	}
	for _, p := range bufs {
		if err := c.writeQuiet(p); err != nil {
			return err
		}
	}
	c.wakeConsumer(c.out)
	return nil
}

// writeQuiet copies p into the out ring without the trailing wake — the
// vectored write wakes once per gather, except when a full ring forces the
// consumer to drain mid-write.
func (c *shmConn) writeQuiet(p []byte) error {
	for len(p) > 0 {
		n := c.out.tryWrite(p)
		if n == 0 {
			c.wakeConsumer(c.out)
			if err := c.waitSpace(); err != nil {
				return err
			}
			continue
		}
		p = p[n:]
	}
	return nil
}

// waitSpace blocks until the out ring has free slots: spin briefly (only
// worthwhile with a second CPU for the consumer to run on), then arm the
// producer sleep flag and wait for the consumer's wakeup — its bell channel
// for a same-process peer, the socket doorbell otherwise, with the poll
// fallback as lost-wakeup insurance.
func (c *shmConn) waitSpace() error {
	if shmSpin {
		for start := time.Now(); ; {
			if c.out.free() > 0 {
				return nil
			}
			if c.dead(c.out) {
				return net.ErrClosed
			}
			if time.Since(start) > shmFullSpin {
				break
			}
			runtime.Gosched()
		}
	}
	var spaceBell chan struct{}
	if c.out.bells != nil {
		spaceBell = c.out.bells.space
	}
	t := pollTimer(&c.outTimer)
	defer stopPoll(t)
	for {
		atomic.StoreUint32(c.out.u32(shmOffProdSleep), 1)
		// Re-check after arming: the consumer drains, then checks the flag —
		// both orders of the race end with either free slots visible here or
		// the flag visible there (the sequentially consistent atomics forbid
		// the lost-wakeup interleaving). The channel path is race-free on its
		// own: a local consumer rings after every drain, so a token is either
		// pending or the re-check sees the slots.
		if c.out.free() > 0 {
			atomic.StoreUint32(c.out.u32(shmOffProdSleep), 0)
			return nil
		}
		if c.dead(c.out) {
			return net.ErrClosed
		}
		if dl := c.wdl.Load(); dl != 0 && time.Now().UnixNano() > dl {
			return os.ErrDeadlineExceeded
		}
		select {
		case <-spaceBell:
		case <-c.outBell:
		case <-t.C:
			t.Reset(shmPollInterval)
		}
	}
}

// Read yields published bytes from the in ring, blocking while it is empty.
// On a closed ring the remaining records drain first and then Read returns
// io.EOF — exactly a socket's close semantics, so a detach frame written
// just before the peer closed still arrives.
func (c *shmConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		head := atomic.LoadUint64(c.in.u64(shmOffHead))
		if n := c.in.tryRead(p); n > 0 {
			// Wake the producer only when slots were actually released — a
			// partial drain of a large record frees nothing to write into.
			if atomic.LoadUint64(c.in.u64(shmOffHead)) != head {
				c.wakeProducer(c.in)
			}
			return n, nil
		}
		if c.dead(c.in) {
			return 0, io.EOF
		}
		c.waitData()
	}
}

// waitData blocks until the in ring has a record or the ring dies: spin
// inside shmSpinWait when a second CPU can make the producer progress — the
// zero-syscall fast path a busy cross-process exchange lives on — then arm
// the consumer sleep flag and wait for the producer's wakeup (bell channel
// for a same-process peer, socket doorbell otherwise).
func (c *shmConn) waitData() {
	if c.in.local() {
		// Same-process peer: the producer rings the shared data bell after
		// every publish and every terminal transition (Close) rings it too,
		// so a plain check-then-receive loop cannot lose a wakeup and the
		// poll-timer insurance (and its Reset cost per block) is not needed.
		for {
			if c.in.readable() || c.dead(c.in) {
				return
			}
			// A bare receive, no select: the producer tops the cap-1 bell up
			// after every publish and every death path rings it (Close here or
			// on the peer, bellLoop EOF), so the token either is pending or
			// arrives after our re-check — never lost, and cheaper than
			// select's per-case locking on the hot block.
			<-c.in.bells.data
		}
	}
	if shmSpin {
		for start := time.Now(); ; {
			if c.in.readable() || c.dead(c.in) {
				return
			}
			if time.Since(start) > shmSpinWait {
				break
			}
			runtime.Gosched()
		}
	}
	var dataBell chan struct{}
	if c.in.bells != nil {
		dataBell = c.in.bells.data
	}
	t := pollTimer(&c.inTimer)
	defer stopPoll(t)
	for {
		atomic.StoreUint32(c.in.u32(shmOffConsSleep), 1)
		if c.in.readable() || c.dead(c.in) {
			atomic.StoreUint32(c.in.u32(shmOffConsSleep), 0)
			return
		}
		select {
		case <-dataBell:
		case <-c.inBell:
		case <-t.C:
			t.Reset(shmPollInterval)
		}
	}
}

// SetWriteDeadline bounds how long a blocked Write waits for slots — the
// teardown flush uses it exactly as it would on a socket.
func (c *shmConn) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		c.wdl.Store(0)
	} else {
		c.wdl.Store(t.UnixNano())
	}
	return nil
}

// Close marks the rings closed (the shared flag reaches the other process
// even if the socket teardown races), closes the doorbell socket and wakes
// every waiter. The mappings themselves stay mapped until the rings are
// collected (the SetFinalizer backstop): a ring is ~68KB of address space,
// and leaving the unmap to the GC keeps Read/Write free of any fence a
// racing eager munmap would demand. Idempotent.
func (c *shmConn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		if c.out != nil {
			c.out.setClosed()
			c.doorbell(c.out, shmOffConsSleep)
		}
		if c.in != nil {
			c.in.setClosed()
			c.doorbell(c.in, shmOffProdSleep)
		}
		c.sock.Close()
		c.ring(c.inBell)
		c.ring(c.outBell)
		// A same-process peer blocked in a wait listens on the shared bells,
		// not our inBell/outBell — ring those too so it re-checks the closed
		// flag without waiting out a poll interval.
		for _, r := range []*shmRing{c.in, c.out} {
			if r != nil && r.bells != nil {
				c.ring(r.bells.data)
				c.ring(r.bells.space)
			}
		}
	})
	return nil
}
