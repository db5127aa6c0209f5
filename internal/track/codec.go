package track

import (
	"fmt"

	"skipper/internal/value"
	"skipper/internal/vision"
)

// Codec extensions for the tracking application's opaque values, so the
// TCP executive transport can ship them between processor OS processes:
// Detections (the `mark` carrier, worker replies), bare Marks (display
// lists) and *State (the itermem feedback value, in case a mapping places
// the memory node away from the predictor).

func init() {
	value.RegisterExt(value.Ext{
		Name:   "track.Detections",
		Match:  func(v value.Value) bool { _, ok := v.(Detections); return ok },
		Encode: encodeDetections,
		Decode: decodeDetections,
		Size:   func(v value.Value) int { return 4 + len(v.(Detections))*markBytes },
		NoView: true,
	})
	value.RegisterExt(value.Ext{
		Name:   "track.Mark",
		Match:  func(v value.Value) bool { _, ok := v.(Mark); return ok },
		Size:   func(value.Value) int { return markBytes },
		Encode: func(buf []byte, v value.Value) ([]byte, error) { return appendMark(buf, v.(Mark)), nil },
		Decode: func(payload []byte) (value.Value, error) {
			m, pos, err := readMark(payload, 0)
			if err != nil {
				return nil, err
			}
			if pos != len(payload) {
				return nil, fmt.Errorf("trailing bytes after mark")
			}
			return m, nil
		},
		NoView: true,
	})
	value.RegisterExt(value.Ext{
		Name:   "track.State",
		Match:  func(v value.Value) bool { _, ok := v.(*State); return ok },
		Encode: encodeState,
		Decode: decodeState,
		Size:   func(v value.Value) int { return stateBytes + len(v.(*State).Vehicles)*vehicleBytes },
	})
}

const markBytes = 8 + 8 + 4*8 + 8 // CX, CY, BBox, Area

// stateBytes is the fixed State header (W, H, NVehicles, Tracking, Frame,
// vehicle count); vehicleBytes is one VehicleEst (marks, VX, VY, Scale, Age).
const (
	stateBytes   = 8 + 8 + 8 + 1 + 8 + 4
	vehicleBytes = MarksPerVehicle*markBytes + 2*MarksPerVehicle*8 + 8 + 8
)

func appendMark(buf []byte, m Mark) []byte {
	buf = value.AppendF64(buf, m.CX)
	buf = value.AppendF64(buf, m.CY)
	for _, c := range [4]int{m.BBox.X0, m.BBox.Y0, m.BBox.X1, m.BBox.Y1} {
		buf = value.AppendI64(buf, int64(c))
	}
	return value.AppendI64(buf, int64(m.Area))
}

func readMark(data []byte, pos int) (Mark, int, error) {
	var m Mark
	var err error
	if m.CX, pos, err = value.ReadF64(data, pos); err != nil {
		return m, 0, err
	}
	if m.CY, pos, err = value.ReadF64(data, pos); err != nil {
		return m, 0, err
	}
	var coords [4]int64
	for i := range coords {
		if coords[i], pos, err = value.ReadI64(data, pos); err != nil {
			return m, 0, err
		}
	}
	m.BBox = vision.Rect{X0: int(coords[0]), Y0: int(coords[1]), X1: int(coords[2]), Y1: int(coords[3])}
	area, pos, err := value.ReadI64(data, pos)
	if err != nil {
		return m, 0, err
	}
	m.Area = int(area)
	return m, pos, nil
}

func encodeDetections(buf []byte, v value.Value) ([]byte, error) {
	d := v.(Detections)
	buf = value.AppendU32(buf, uint32(len(d)))
	for _, m := range d {
		buf = appendMark(buf, m)
	}
	return buf, nil
}

func decodeDetections(payload []byte) (value.Value, error) {
	count, pos, err := value.ReadU32(payload, 0)
	if err != nil {
		return nil, err
	}
	if int64(count)*markBytes != int64(len(payload)-pos) {
		return nil, fmt.Errorf("detections count %d wants %d bytes, frame has %d",
			count, int64(count)*markBytes, len(payload)-pos)
	}
	d := make(Detections, count)
	for i := range d {
		if d[i], pos, err = readMark(payload, pos); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func encodeState(buf []byte, v value.Value) ([]byte, error) {
	s := v.(*State)
	buf = value.AppendI64(buf, int64(s.W))
	buf = value.AppendI64(buf, int64(s.H))
	buf = value.AppendI64(buf, int64(s.NVehicles))
	b := byte(0)
	if s.Tracking {
		b = 1
	}
	buf = append(buf, b)
	buf = value.AppendI64(buf, int64(s.Frame))
	buf = value.AppendU32(buf, uint32(len(s.Vehicles)))
	for _, ve := range s.Vehicles {
		for _, m := range ve.Marks {
			buf = appendMark(buf, m)
		}
		for i := 0; i < MarksPerVehicle; i++ {
			buf = value.AppendF64(buf, ve.VX[i])
		}
		for i := 0; i < MarksPerVehicle; i++ {
			buf = value.AppendF64(buf, ve.VY[i])
		}
		buf = value.AppendF64(buf, ve.Scale)
		buf = value.AppendI64(buf, int64(ve.Age))
	}
	return buf, nil
}

func decodeState(payload []byte) (value.Value, error) {
	s := &State{}
	var w, h, nv, frame int64
	var err error
	pos := 0
	if w, pos, err = value.ReadI64(payload, pos); err != nil {
		return nil, err
	}
	if h, pos, err = value.ReadI64(payload, pos); err != nil {
		return nil, err
	}
	if nv, pos, err = value.ReadI64(payload, pos); err != nil {
		return nil, err
	}
	if pos >= len(payload) {
		return nil, fmt.Errorf("truncated state tracking flag")
	}
	s.Tracking = payload[pos] == 1
	pos++
	if frame, pos, err = value.ReadI64(payload, pos); err != nil {
		return nil, err
	}
	s.W, s.H, s.NVehicles, s.Frame = int(w), int(h), int(nv), int(frame)
	count, pos, err := value.ReadU32(payload, pos)
	if err != nil {
		return nil, err
	}
	if int64(count)*vehicleBytes != int64(len(payload)-pos) {
		return nil, fmt.Errorf("state vehicle count %d wants %d bytes, frame has %d",
			count, int64(count)*vehicleBytes, len(payload)-pos)
	}
	s.Vehicles = make([]VehicleEst, count)
	for i := range s.Vehicles {
		ve := &s.Vehicles[i]
		for j := 0; j < MarksPerVehicle; j++ {
			if ve.Marks[j], pos, err = readMark(payload, pos); err != nil {
				return nil, err
			}
		}
		for j := 0; j < MarksPerVehicle; j++ {
			if ve.VX[j], pos, err = value.ReadF64(payload, pos); err != nil {
				return nil, err
			}
		}
		for j := 0; j < MarksPerVehicle; j++ {
			if ve.VY[j], pos, err = value.ReadF64(payload, pos); err != nil {
				return nil, err
			}
		}
		if ve.Scale, pos, err = value.ReadF64(payload, pos); err != nil {
			return nil, err
		}
		var age int64
		if age, pos, err = value.ReadI64(payload, pos); err != nil {
			return nil, err
		}
		ve.Age = int(age)
	}
	return s, nil
}
