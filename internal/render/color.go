package render

import "hash/fnv"

// Color assignment. The background colorings of Fig. 1 distinguish
// medication classes; Section II demands encodings that stay preattentive:
// "choosing good colors and distinct forms, and avoiding the need for
// conjunction search". The class palette below uses well-separated hues
// (Okabe-Ito colorblind-safe set first) so any one class pops out against
// the others, and fixed role colors keep non-class marks achromatic.

// Role colors for the structural elements of the timeline.
const (
	ColorHistoryBar = "#d9d9d9" // the gray patient bar
	ColorDiagnosis  = "#1a1a1a" // small diagnosis rectangles
	ColorArrow      = "#c02020" // blood-pressure arrows
	ColorContact    = "#707070" // contact ticks
	ColorStay       = "#f4a582" // admission band
	ColorService    = "#92c5de" // municipal service band
	ColorAxis       = "#404040"
	ColorGridLine   = "#e8e8e8"
	ColorAnchorLine = "#c02020" // alignment-point rule
)

// classPalette is the medication-class hue set (Okabe-Ito plus extensions),
// ordered by assignment priority.
var classPalette = []string{
	"#E69F00", // orange
	"#56B4E9", // sky blue
	"#009E73", // bluish green
	"#F0E442", // yellow
	"#0072B2", // blue
	"#D55E00", // vermillion
	"#CC79A7", // reddish purple
	"#999933", // olive
	"#882255", // wine
	"#44AA99", // teal
	"#AA4499", // purple
	"#6699CC", // steel blue
}

// ClassColors deterministically assigns palette colors to class labels in
// first-seen order; overflow labels hash into the palette.
type ClassColors struct {
	assigned map[string]string
	next     int
}

// NewClassColors creates an empty assignment.
func NewClassColors() *ClassColors {
	return &ClassColors{assigned: make(map[string]string)}
}

// Color returns the class's color, assigning one on first use.
func (c *ClassColors) Color(class string) string {
	if col, ok := c.assigned[class]; ok {
		return col
	}
	var col string
	if c.next < len(classPalette) {
		col = classPalette[c.next]
		c.next++
	} else {
		h := fnv.New32a()
		h.Write([]byte(class))
		col = classPalette[h.Sum32()%uint32(len(classPalette))]
	}
	c.assigned[class] = col
	return col
}

// Classes returns the labels assigned so far (unordered count only matters
// for legends; callers sort).
func (c *ClassColors) Len() int { return len(c.assigned) }
