// Package mining finds relations between diagnosis codes across a
// collection — the second predecessor project "mined for relations between
// the diagnosis codes themselves". Co-occurrence rules (A and B in the same
// history) and sequential rules (A followed by B) are scored with support,
// confidence and lift.
package mining

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
)

// Rule is one mined relation between codes A and B.
type Rule struct {
	A, B string
	// Sequential marks A-then-B ordering rules (vs. co-occurrence).
	Sequential bool
	// Support is the fraction of histories exhibiting the pair.
	Support float64
	// Confidence is P(pair | A present).
	Confidence float64
	// Lift is Confidence / P(B present); > 1 means positive association.
	Lift float64
	// Counts behind the ratios.
	CountPair, CountA, CountB, N int
}

func (r Rule) String() string {
	arrow := "∧"
	if r.Sequential {
		arrow = "→"
	}
	return fmt.Sprintf("%s %s %s (supp %.3f, conf %.2f, lift %.2f, n=%d)",
		r.A, arrow, r.B, r.Support, r.Confidence, r.Lift, r.CountPair)
}

// Options bounds the search.
type Options struct {
	// MinSupport is the minimum fraction of histories exhibiting the
	// pair (default 0.01).
	MinSupport float64
	// MinCount is an absolute floor on pair count (default 2).
	MinCount int
	// MaxGap bounds the position distance for sequential rules; 0 means
	// unbounded.
	MaxGap int
}

func (o *Options) defaults() {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.01
	}
	if o.MinCount <= 0 {
		o.MinCount = 2
	}
}

// Counts is the mergeable map-step partial behind rule mining: per-code
// and per-pair presence tallies over disjoint history sets. Every field
// is an integer sum, so partials produced by different shards merge in
// any grouping to exactly what a sequential pass over the union would
// count — and because Rules derives every ratio once from the merged
// integers, a distributed mine is bit-identical to a local one at any
// shard count.
type Counts struct {
	// Sequential selects ordered (A-then-B) counting; false counts
	// unordered co-occurrence with A<B normalized.
	Sequential bool
	// MaxGap bounds the position distance for sequential pairs; 0 means
	// unbounded. Ignored for co-occurrence.
	MaxGap int
	// N is the number of sequences tallied.
	N int
	// Single counts histories where the code appears at least once.
	Single map[string]int
	// Pair counts histories exhibiting the pair.
	Pair map[[2]string]int
}

// NewCounts creates an empty partial for one counting mode.
func NewCounts(sequential bool, maxGap int) *Counts {
	return &Counts{
		Sequential: sequential,
		MaxGap:     maxGap,
		Single:     make(map[string]int),
		Pair:       make(map[[2]string]int),
	}
}

// AddSequence tallies one history's code sequence. Each history
// contributes at most one count per code and per pair, whatever the
// repetition inside the sequence.
func (c *Counts) AddSequence(seq []string) { c.Add(seq, new(Scratch)) }

// Scratch is the working memory of one tally step, reused from one
// sequence to the next by a caller that tallies many (a map step allocates
// nothing per history once it is warm). A scratch belongs to one
// goroutine; the zero value is ready.
type Scratch struct {
	codes []string // the sequence's distinct codes, sorted
	ranks []int32  // each position's index into codes
	seen  []uint64 // len(codes)² bits: ordered pairs already counted
}

// Add is AddSequence over a caller-owned scratch — the one tally loop.
func (c *Counts) Add(seq []string, s *Scratch) {
	c.N++
	s.codes = append(s.codes[:0], seq...)
	slices.Sort(s.codes)
	s.codes = slices.Compact(s.codes)
	codes := s.codes
	for _, code := range codes {
		c.Single[code]++
	}
	if !c.Sequential {
		for i := range codes {
			for j := i + 1; j < len(codes); j++ {
				c.Pair[[2]string{codes[i], codes[j]}]++
			}
		}
		return
	}
	// Ordered pairs: a pair counts once per history however often it
	// recurs, so each (a, b) is marked in a bit matrix over the distinct
	// codes' ranks and counted the first time only.
	k := len(codes)
	s.ranks = s.ranks[:0]
	for _, code := range seq {
		r, _ := slices.BinarySearch(codes, code)
		s.ranks = append(s.ranks, int32(r))
	}
	words := (k*k + 63) / 64
	s.seen = slices.Grow(s.seen[:0], words)[:words]
	clear(s.seen)
	for i, a := range s.ranks {
		for j := i + 1; j < len(s.ranks); j++ {
			if c.MaxGap > 0 && j-i > c.MaxGap {
				break
			}
			b := s.ranks[j]
			if bit := int(a)*k + int(b); a != b && s.seen[bit/64]&(1<<(bit%64)) == 0 {
				s.seen[bit/64] |= 1 << (bit % 64)
				c.Pair[[2]string{codes[a], codes[b]}]++
			}
		}
	}
}

// Merge folds another partial into the receiver. The partials must have
// been produced with the same counting mode: merging a sequential tally
// into a co-occurrence tally (or across MaxGap settings) would silently
// mix incompatible pair semantics, so it errors instead.
func (c *Counts) Merge(o *Counts) error {
	if o == nil {
		return nil
	}
	if c.Sequential != o.Sequential || c.MaxGap != o.MaxGap {
		return fmt.Errorf("mining: cannot merge counts (sequential=%v gap=%d) into (sequential=%v gap=%d)",
			o.Sequential, o.MaxGap, c.Sequential, c.MaxGap)
	}
	c.N += o.N
	if c.Single == nil {
		c.Single = make(map[string]int, len(o.Single))
	}
	if c.Pair == nil {
		c.Pair = make(map[[2]string]int, len(o.Pair))
	}
	for code, n := range o.Single {
		c.Single[code] += n
	}
	for p, n := range o.Pair {
		c.Pair[p] += n
	}
	return nil
}

// countsWire is Counts as gob carries it: the same fields, without the
// GobEncode and GobDecode methods.
type countsWire Counts

// GobEncode implements gob.GobEncoder, so that gob decodes Counts through
// GobDecode.
func (c *Counts) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode((*countsWire)(c))
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The maps exist before decoding:
// gob sizes a nil map by the length the bytes declare, before any element
// arrives, so a corrupt or hostile partial could otherwise make its
// reader allocate whatever it claims.
func (c *Counts) GobDecode(data []byte) error {
	w := countsWire{Single: map[string]int{}, Pair: map[[2]string]int{}}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("mining: decode counts: %w", err)
	}
	*c = Counts(w)
	return nil
}

// HistoryCount reports how many sequences the partial tallied — the
// sanity bound a transport checks a reply against.
func (c *Counts) HistoryCount() int { return c.N }

// Rules finalizes the tally into scored rules. All ratios are computed
// here, once, from the integer counts, so partials merged in any
// grouping finalize to the identical rule list.
func (c *Counts) Rules(opt Options) []Rule {
	opt.defaults()
	if c.N == 0 {
		return nil
	}
	n := c.N
	var out []Rule
	for p, cnt := range c.Pair {
		supp := float64(cnt) / float64(n)
		if supp < opt.MinSupport || cnt < opt.MinCount {
			continue
		}
		a, b := p[0], p[1]
		conf := float64(cnt) / float64(c.Single[a])
		lift := conf / (float64(c.Single[b]) / float64(n))
		out = append(out, Rule{
			A: a, B: b, Sequential: c.Sequential,
			Support: supp, Confidence: conf, Lift: lift,
			CountPair: cnt, CountA: c.Single[a], CountB: c.Single[b], N: n,
		})
	}
	sortRules(out)
	return out
}

// CoOccurrence mines unordered pair rules over code sequences (one
// sequence per history). For each rule A∧B only the (A<B) orientation with
// the code-order normalized is emitted once, but confidence is computed
// for the A side; callers wanting both directions can swap.
//
// This is the local-only convenience form over an in-memory sequence set;
// a connected workbench mines through the engine's Analyze map-reduce
// (core.Workbench.MineRules), which runs the same Counts tally per shard.
func CoOccurrence(seqs [][]string, opt Options) []Rule {
	c := NewCounts(false, 0)
	var s Scratch
	for _, seq := range seqs {
		c.Add(seq, &s)
	}
	return c.Rules(opt)
}

// Sequential mines ordered rules: A appears and B appears later (within
// MaxGap positions when set). Each history contributes at most one count
// per ordered pair.
//
// Like CoOccurrence, this is the local-only convenience form; distributed
// callers go through core.Workbench.MineRules.
func Sequential(seqs [][]string, opt Options) []Rule {
	c := NewCounts(true, opt.MaxGap)
	var s Scratch
	for _, seq := range seqs {
		c.Add(seq, &s)
	}
	return c.Rules(opt)
}

// sortRules orders by lift, then support, then lexicographically — the
// order an analyst reads the rule list in.
func sortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Lift != rs[j].Lift {
			return rs[i].Lift > rs[j].Lift
		}
		if rs[i].Support != rs[j].Support {
			return rs[i].Support > rs[j].Support
		}
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
}

// Top returns the k highest-support rules. The cut is fully
// deterministic — support descending, then the rule key (A, B,
// sequential flag) — so two rule lists that carry the same rules in
// different orders truncate to the identical top-k, and distributed and
// local mines diff byte-identical.
func Top(rs []Rule, k int) []Rule {
	out := append([]Rule(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return !out[i].Sequential && out[j].Sequential
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
