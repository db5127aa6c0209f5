package vision

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDilateGrowsBlob(t *testing.T) {
	im := NewImage(7, 7)
	im.Set(3, 3, 255)
	d := Dilate3(im)
	// The single pixel becomes a 3x3 block.
	for y := 2; y <= 4; y++ {
		for x := 2; x <= 4; x++ {
			if d.At(x, y) != 255 {
				t.Fatalf("dilation missing at (%d,%d)", x, y)
			}
		}
	}
	if d.At(1, 1) != 0 || d.At(5, 5) != 0 {
		t.Fatal("dilation leaked")
	}
}

func TestErodeShrinksBlob(t *testing.T) {
	im := NewImage(7, 7)
	FillRect(im, Rect{X0: 2, Y0: 2, X1: 5, Y1: 5}, 255) // 3x3 block
	e := Erode3(im)
	if e.At(3, 3) != 255 {
		t.Fatal("erosion removed the core")
	}
	count := 0
	for _, p := range e.Pix {
		if p == 255 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("erosion left %d pixels, want 1", count)
	}
}

// Property: erosion ≤ original ≤ dilation, pointwise.
func TestMorphologyOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := NewImage(1+rng.Intn(20), 1+rng.Intn(20))
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(256))
		}
		e, d := Erode3(im), Dilate3(im)
		for i := range im.Pix {
			if e.Pix[i] > im.Pix[i] || im.Pix[i] > d.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: dilation and erosion are duals under complement.
func TestMorphologyDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Interior-only check: border behaviour differs because padding is
		// 0 for both operators (not complement-symmetric).
		im := NewImage(8+rng.Intn(10), 8+rng.Intn(10))
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(256))
		}
		comp := NewImage(im.W, im.H)
		for i := range im.Pix {
			comp.Pix[i] = 255 - im.Pix[i]
		}
		dc := Dilate3(comp)
		e := Erode3(im)
		for y := 1; y < im.H-1; y++ {
			for x := 1; x < im.W-1; x++ {
				if 255-dc.At(x, y) != e.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPGMRoundTrip(t *testing.T) {
	im := NewImage(13, 7)
	for i := range im.Pix {
		im.Pix[i] = uint8(i * 5 % 251)
	}
	var buf bytes.Buffer
	if err := EncodePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H {
		t.Fatalf("geometry %dx%d", back.W, back.H)
	}
	for i := range im.Pix {
		if back.Pix[i] != im.Pix[i] {
			t.Fatalf("pixel %d: %d != %d", i, back.Pix[i], im.Pix[i])
		}
	}
}

func TestPGMDecodeWithComments(t *testing.T) {
	payload := "P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04"
	im, err := DecodePGM(strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 2 || im.Pix[3] != 4 {
		t.Fatalf("decoded %+v", im)
	}
}

func TestPGMDecodeErrors(t *testing.T) {
	cases := []string{
		"P6\n2 2\n255\n\x00\x00\x00\x00", // wrong magic
		"P5\n2 2\n70000\n",               // bad maxval
		"P5\n2 2\n255\n\x00",             // truncated payload
		"P5\n-2 2\n255\n",                // bad integer
		"P5\n0 0\n255\n",                 // degenerate size
		"",                               // empty
	}
	for _, c := range cases {
		if _, err := DecodePGM(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q should fail", c)
		}
	}
}
