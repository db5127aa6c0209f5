package vision

import (
	"bufio"
	"fmt"
	"io"
)

// EncodePGM writes the image in binary Netpbm P5 format (8-bit grayscale),
// the natural interchange format for the single-channel frames this
// pipeline processes. Any PGM viewer or converter can open the output.
func EncodePGM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	for y := 0; y < im.H; y++ {
		if _, err := bw.Write(im.Row(y)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodePGM reads a binary (P5) PGM image with maxval <= 255. Comments and
// arbitrary whitespace in the header are handled per the Netpbm spec.
func DecodePGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, err
	}
	if magic != "P5" {
		return nil, fmt.Errorf("vision: not a binary PGM (magic %q)", magic)
	}
	w, err := pgmInt(br)
	if err != nil {
		return nil, err
	}
	h, err := pgmInt(br)
	if err != nil {
		return nil, err
	}
	maxval, err := pgmInt(br)
	if err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 || w*h > 1<<28 {
		return nil, fmt.Errorf("vision: unreasonable PGM geometry %dx%d", w, h)
	}
	if maxval <= 0 || maxval > 255 {
		return nil, fmt.Errorf("vision: unsupported PGM maxval %d", maxval)
	}
	im := NewImage(w, h)
	if _, err := io.ReadFull(br, im.Pix); err != nil {
		return nil, fmt.Errorf("vision: truncated PGM payload: %w", err)
	}
	return im, nil
}

// pgmToken reads the next whitespace-delimited token, skipping # comments.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func pgmInt(br *bufio.Reader) (int, error) {
	tok, err := pgmToken(br)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return 0, fmt.Errorf("vision: bad PGM integer %q", tok)
		}
		n = n*10 + int(tok[i]-'0')
	}
	return n, nil
}
