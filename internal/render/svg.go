// Package render draws the workbench's views as SVG documents: the Fig. 1
// timeline workbench, the Fig. 2 NSEPter graphs and the Fig. 3 preattentive
// stimulus. SVG substitutes for the paper's Swing canvas: every visual
// encoding (bars, rectangles, arrows, background colorings, axes, zoom) is
// preserved, and because output is deterministic text it is testable.
package render

import (
	"math"
	"strconv"
	"strings"
)

// SVG is a minimal scene writer. Coordinates are pixels. The document is
// appended to one byte slice as the scene is drawn — no element is
// formatted on the side and copied in — so a drawing allocates in
// proportion to its own size.
type SVG struct {
	buf   []byte
	depth int
}

// NewSVG creates a document of the given pixel size.
func NewSVG(width, height float64) *SVG { return newSVG(nil, width, height) }

// newSVG starts the document at the end of dst, so a caller that already
// holds a buffer (a page being assembled) draws straight into it.
func newSVG(dst []byte, width, height float64) *SVG {
	s := &SVG{buf: dst}
	s.raw(`<svg xmlns="http://www.w3.org/2000/svg"`)
	s.coord("width", width)
	s.coord("height", height)
	s.raw(` viewBox="0 0 `)
	s.num(width)
	s.raw(" ")
	s.num(height)
	s.raw("\" font-family=\"sans-serif\">\n")
	return s
}

func (s *SVG) raw(t string) { s.buf = append(s.buf, t...) }

// esc appends text content or an attribute value, escaped.
func (s *SVG) esc(t string) { s.buf = appendEsc(s.buf, t) }

// num appends a coordinate.
func (s *SVG) num(v float64) { s.buf = appendNum(s.buf, v) }

// appendEsc escapes the four characters that end text content or a quoted
// attribute value; every other byte (valid UTF-8 or not) passes through.
func appendEsc(dst []byte, t string) []byte {
	from := 0
	for i := 0; i < len(t); i++ {
		var ent string
		switch t[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			ent = "&quot;"
		default:
			continue
		}
		dst = append(dst, t[from:i]...)
		dst = append(dst, ent...)
		from = i + 1
	}
	return append(dst, t[from:]...)
}

// appendNum formats coordinates compactly: two decimals (the digits fmt's
// %.2f prints), trailing zeros and a bare trailing point trimmed in place
// (1.50 → 1.5, 2.00 → 2). The digits come from exact integer arithmetic —
// v is mant·2^exp, so v·100 is (mant·100)·2^exp, shifted and rounded half
// to even on the remainder — because strconv has no fast path for a fixed
// precision and sends every coordinate through its multiprecision decimal.
func appendNum(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	if exp >= 1023+57 { // NaN, ±Inf, or too large for mant·100·2^exp in 64 bits
		return trimNum(strconv.AppendFloat(dst, v, 'f', 2, 64), len(dst))
	}
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	cents := mant * 100 // < 2^60
	if shift := 1075 - exp; shift <= 0 {
		cents <<= -shift
	} else if shift > 61 {
		cents = 0 // below half a cent
	} else {
		rem, half := cents&(1<<shift-1), uint64(1)<<(shift-1)
		cents >>= shift
		if rem > half || rem == half && cents&1 == 1 {
			cents++
		}
	}
	start := len(dst)
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, cents/100, 10)
	dst = append(dst, '.', byte('0'+cents%100/10), byte('0'+cents%10))
	return trimNum(dst, start)
}

// trimNum drops trailing zeros and a bare trailing point from dst[start:].
func trimNum(dst []byte, start int) []byte {
	for len(dst) > start && dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	if len(dst) > start && dst[len(dst)-1] == '.' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// num is appendNum as a string, for a computed attribute value.
func num(v float64) string { return string(appendNum(nil, v)) }

// indent starts a fresh line at the current group depth.
func (s *SVG) indent() {
	for i := 0; i <= s.depth; i++ {
		s.raw("  ")
	}
}

func (s *SVG) open(tag string) {
	s.indent()
	s.raw("<")
	s.raw(tag)
}

func (s *SVG) coord(name string, v float64) {
	s.raw(" ")
	s.raw(name)
	s.raw(`="`)
	s.num(v)
	s.raw(`"`)
}

// attrs appends key-value pairs in order; panics on odd length
// (programmer error).
func (s *SVG) attrs(attrs []string) {
	if len(attrs)%2 != 0 {
		panic("render: odd attribute list")
	}
	for i := 0; i < len(attrs); i += 2 {
		s.raw(" ")
		s.raw(attrs[i])
		s.raw(`="`)
		s.esc(attrs[i+1])
		s.raw(`"`)
	}
}

// shape draws one self-closing element: its named coordinates (up to
// four; unused names are empty), then the caller's attributes.
func (s *SVG) shape(tag string, names [4]string, vals [4]float64, attrs []string) {
	s.open(tag)
	for i, name := range names {
		if name != "" {
			s.coord(name, vals[i])
		}
	}
	s.attrs(attrs)
	s.raw("/>\n")
}

// Rect draws a rectangle.
func (s *SVG) Rect(x, y, w, h float64, attrs ...string) {
	s.shape("rect", [4]string{"x", "y", "width", "height"}, [4]float64{x, y, w, h}, attrs)
}

// Circle draws a circle.
func (s *SVG) Circle(cx, cy, r float64, attrs ...string) {
	s.shape("circle", [4]string{"cx", "cy", "r"}, [4]float64{cx, cy, r}, attrs)
}

// Ellipse draws an ellipse.
func (s *SVG) Ellipse(cx, cy, rx, ry float64, attrs ...string) {
	s.shape("ellipse", [4]string{"cx", "cy", "rx", "ry"}, [4]float64{cx, cy, rx, ry}, attrs)
}

// Line draws a line segment.
func (s *SVG) Line(x1, y1, x2, y2 float64, attrs ...string) {
	s.shape("line", [4]string{"x1", "y1", "x2", "y2"}, [4]float64{x1, y1, x2, y2}, attrs)
}

// Polygon draws a closed polygon from x,y pairs.
func (s *SVG) Polygon(points []float64, attrs ...string) {
	if len(points)%2 != 0 {
		panic("render: odd point list")
	}
	s.open("polygon")
	s.raw(` points="`)
	for i := 0; i < len(points); i += 2 {
		if i > 0 {
			s.raw(" ")
		}
		s.num(points[i])
		s.raw(",")
		s.num(points[i+1])
	}
	s.raw(`"`)
	s.attrs(attrs)
	s.raw("/>\n")
}

// Text draws a text label.
func (s *SVG) Text(x, y float64, text string, attrs ...string) {
	s.open("text")
	s.coord("x", x)
	s.coord("y", y)
	s.attrs(attrs)
	s.raw(">")
	s.esc(text)
	s.raw("</text>\n")
}

// TitledGroup opens a <g> whose <title> child is the tooltip of the
// elements drawn until EndGroup — SVG renderers show it on hover; our
// details-on-demand in the static artifacts.
func (s *SVG) TitledGroup(title string) {
	s.openTitle()
	s.esc(title)
	s.closeTitle()
}

// openTitle and closeTitle bracket a tooltip the caller appends piecewise
// (s.esc, strconv.Append*) instead of concatenating a string per mark.
func (s *SVG) openTitle() {
	s.open("g")
	s.raw(">\n")
	s.depth++
	s.open("title")
	s.raw(">")
}

func (s *SVG) closeTitle() { s.raw("</title>\n") }

// EndGroup closes the innermost open group.
func (s *SVG) EndGroup() {
	s.depth--
	s.indent()
	s.raw("</g>\n")
}

// Comment inserts an XML comment (section markers for tests and humans);
// a double dash, which would end the comment early, becomes an em dash.
func (s *SVG) Comment(text string) {
	s.indent()
	s.raw("<!-- ")
	s.raw(strings.ReplaceAll(text, "--", "—")) // no copy when there is none
	s.raw(" -->\n")
}

// Bytes returns the complete document: whatever preceded it in the buffer
// newSVG was handed, then the drawing.
func (s *SVG) Bytes() []byte { return append(s.buf, "</svg>\n"...) }

// String returns the complete document as a string.
func (s *SVG) String() string { return string(s.Bytes()) }
