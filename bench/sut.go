package main

// The system under test, named once. Everything the benchmark calls in the
// repository goes through an identifier declared in this file, so a later
// refactor can read the surface it must keep (or change here, in one
// place) without searching the benchmark. Methods reached through these
// values are listed beside their constructor.

import (
	"skipper/internal/arch"
	"skipper/internal/distrib"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/exec"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/expand"
	"skipper/internal/serve"
	"skipper/internal/sim"
	"skipper/internal/skel"
	"skipper/internal/syndex"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// Compiler chain: Caml-subset source → typed AST → process graph → schedule.
var (
	sutParse  = parser.Parse  // dsl/parser
	sutCheck  = types.Check   // dsl/types
	sutExpand = expand.Expand // expand; uses Result.Graph
	sutMap    = syndex.Map    // syndex, strategy syndex.Structured; uses Schedule.Programs, .Fingerprint, .Assign, .Graph
	sutRing   = arch.Ring     // arch
)

const sutStructured = syndex.Structured

// Sequential emulator, the correctness oracle: eval.New(reg, Options{MaxIters,
// Trace}).Run(prog).
var sutEmulator = eval.New

type sutEmuOptions = eval.Options

// Executive. Machine fields set: Pipeline. Methods: RunWithTimeout; result
// fields read: Outputs, Messages, Direct.
var (
	sutMachineOn = exec.NewMachineOn   // exec, hosting a processor subset over a transport
	sutMemNet    = memtransport.New    // exec/memtransport; methods Send, Recv, Stats, Close
	sutHub       = nettransport.NewHub // exec/nettransport; methods Addr, WaitReady, Send, Recv, Stats, Close
	sutDial      = nettransport.Dial   // exec/nettransport; methods Send, Recv, Stats, Close
	sutDataPlane = nettransport.WithDataPlane
	sutHubAddr   = distrib.HubListenAddr // bind address + cleanup for tcp/unix/shm
	sutEdgeKey   = transport.EdgeKey
)

type (
	sutTransport = transport.Transport
	sutTask      = transport.Task
	sutReply     = transport.Reply
	sutProc      = arch.ProcID
	sutSchedule  = syndex.Schedule
	sutRunResult = exec.RunResult
)

// Values, registry and wire codec.
var (
	sutNewRegistry = value.NewRegistry // methods Register, Lookup, Names
	sutEncode      = value.Encode
	sutDecode      = value.Decode
	sutEncodeSize  = value.EncodeSize
)

type (
	sutValue    = value.Value
	sutFunc     = value.Func
	sutRegistry = value.Registry
	sutList     = value.List
	sutTuple    = value.Tuple
	sutUnit     = value.Unit
)

// Application building blocks: the stock tracking application and the
// public vision/track functions the other two applications are built from.
var (
	sutTrackSource   = track.ProgramSource
	sutTrackRegistry = track.NewRegistry
	sutDetectMarks   = track.DetectMarks
	sutMergeMarks    = track.MergeDuplicates
	sutNewScene      = video.NewScene // methods Next
	sutExtract       = vision.Extract
	sutSplitGrid     = vision.SplitGrid
	sutCountAbove    = vision.CountAbove
	sutThresholdInto = vision.ThresholdInto
	sutDilateInto    = vision.Dilate3Into
	sutNewImage      = vision.NewImage
	sutNewPool       = skel.NewPool // methods Go, Close
)

// Cost-model constants the timing simulator charges for detection work.
const (
	sutDetectThreshold  = video.DetectThreshold
	sutFixedDetectCost  = track.FixedDetectCycles
	sutDetectCostPerPix = track.CyclesPerPixelDetect
)

type (
	sutImage        = vision.Image
	sutWindow       = vision.Window
	sutRect         = vision.Rect
	sutMark         = track.Mark
	sutDetections   = track.Detections
	sutLabelScratch = vision.LabelScratch // method Label
)

// Timing simulator: sim.Run(schedule, reg, Options{Iters, Trace}); reads
// Result.Iters[].Latency and Result.Spans.
var sutSimulate = sim.Run

type sutSimOptions = sim.Options

// Service: control plane + fleet workers + the job description; the HTTP
// surface used is POST /jobs, GET /jobs/{id} and GET /metrics.
var (
	sutServe      = serve.New         // methods Addr, FleetAddr, Close
	sutJoinFleet  = distrib.JoinFleet // methods Serve, Leave
	sutJobDigest  = serve.Digest
	sutJobCompile = distrib.Job.Compile
)

type (
	sutServeConfig = serve.Config
	sutJob         = distrib.Job
	sutJobView     = serve.JobView
)
