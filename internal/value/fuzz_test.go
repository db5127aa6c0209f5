package value_test

// FuzzCodecRoundTrip drives the wire codec from two directions:
//
//  1. Structured inputs: a byte string is interpreted as a construction
//     recipe for an arbitrary nested value (tuples, lists, base types,
//     images and windows); decode(encode(v)) must equal v.
//  2. Raw inputs: the same bytes are fed straight to the decoder, which
//     must reject corrupt/truncated/oversized frames with an error —
//     never a panic or a runaway allocation — and anything it does accept
//     must re-encode and re-decode to an equal value.

import (
	"math"
	"testing"

	"skipper/internal/value"
	"skipper/internal/vision"
)

// buildValue consumes recipe bytes and produces a value. depth bounds
// recursion so adversarial recipes stay small.
func buildValue(recipe []byte, pos *int, depth int) value.Value {
	next := func() byte {
		if *pos >= len(recipe) {
			return 0
		}
		b := recipe[*pos]
		*pos++
		return b
	}
	switch k := next() % 9; k {
	case 0:
		return nil
	case 1:
		return int(int8(next()))<<16 | int(next())
	case 2:
		return float64(int8(next())) / 4
	case 3:
		return next()%2 == 0
	case 4:
		n := int(next()) % 8
		s := make([]byte, n)
		for i := range s {
			s[i] = next()
		}
		return string(s)
	case 5:
		return value.Unit{}
	case 6, 7:
		n := int(next()) % 5
		if depth <= 0 {
			n = 0
		}
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = buildValue(recipe, pos, depth-1)
		}
		if k == 6 {
			return value.Tuple(elems)
		}
		return value.List(elems)
	default:
		w, h := int(next())%5, int(next())%5
		im := vision.NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = next()
		}
		if next()%2 == 0 {
			return im
		}
		return vision.Window{Origin: vision.Rect{X0: int(int8(next())), Y0: int(int8(next())),
			X1: int(int8(next())), Y1: int(int8(next()))}, Img: im}
	}
}

// windowEqual compares windows structurally (value.Equal cannot: Window
// holds an image pointer, so == compares identities).
func codecEqual(a, b value.Value) bool {
	switch av := a.(type) {
	case float64:
		// The wire carries the IEEE-754 bits, and a hostile frame may hold a
		// NaN, which == never finds equal to itself.
		bv, ok := b.(float64)
		return ok && math.Float64bits(av) == math.Float64bits(bv)
	case *vision.Image:
		bv, ok := b.(*vision.Image)
		if !ok || av.W != bv.W || av.H != bv.H {
			return false
		}
		for i := range av.Pix {
			if av.Pix[i] != bv.Pix[i] {
				return false
			}
		}
		return true
	case vision.Window:
		bv, ok := b.(vision.Window)
		if !ok || av.Origin != bv.Origin || (av.Img == nil) != (bv.Img == nil) {
			return false
		}
		return av.Img == nil || codecEqual(av.Img, bv.Img)
	case value.Tuple:
		bv, ok := b.(value.Tuple)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !codecEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case value.List:
		bv, ok := b.(value.List)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !codecEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	default:
		return value.Equal(a, b)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 3, 1, 42, 7, 2, 8, 3, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{8, 4, 4, 1, 2, 3, 4, 5})
	f.Add([]byte{0x07, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x08, 0x00, 0x0c, 'v', 'i', 's', 'i', 'o', 'n', '.', 'I', 'm', 'a', 'g', 'e'})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a construction recipe.
		pos := 0
		v := buildValue(data, &pos, 6)
		enc, err := value.Encode(nil, v)
		if err != nil {
			t.Fatalf("encode of constructed value failed: %v", err)
		}
		dec, err := value.Decode(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded value failed: %v", err)
		}
		if !codecEqual(v, dec) {
			t.Fatalf("round trip mismatch: %s vs %s", value.Show(v), value.Show(dec))
		}

		// Direction 2: data as a hostile wire frame. Errors are expected;
		// panics and unbounded allocations are not (the length checks in the
		// decoder reject frames whose declared sizes exceed the input).
		got, err := value.Decode(data)
		if err != nil {
			return
		}
		re, err := value.Encode(nil, got)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		got2, err := value.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !codecEqual(got, got2) {
			t.Fatalf("accepted frame is not stable: %s vs %s", value.Show(got), value.Show(got2))
		}
	})
}
