// Package terminology embeds the clinical code systems the workbench reasons
// over: ICPC-2 (primary care diagnoses), ICD-10 (specialist diagnoses) and
// ATC (medication classes), each with its hierarchy.
//
// The paper's data is "coded in a standard way ... mainly using ICPC-2
// and/or ICD-10", and its regular-expression queries address "any branch of
// the hierarchies by listing the first few letters or digits and appending a
// wildcard" (e.g. F.*|H.* for eye-or-ear). The tables here are curated
// subsets of the real classifications: every chapter is present, and the
// code-level subset covers the conditions the synthetic registry generates.
package terminology

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// System names a code system.
type System string

const (
	ICPC2 System = "ICPC2"
	ICD10 System = "ICD10"
	ATC   System = "ATC"
)

// Level describes where in its hierarchy a concept sits.
type Level uint8

const (
	LevelRoot Level = iota
	LevelChapter
	LevelBlock
	LevelCode
	LevelSubCode
)

func (l Level) String() string {
	switch l {
	case LevelRoot:
		return "root"
	case LevelChapter:
		return "chapter"
	case LevelBlock:
		return "block"
	case LevelCode:
		return "code"
	case LevelSubCode:
		return "subcode"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Concept is one coded entity in a system.
type Concept struct {
	System System
	Code   string
	Title  string
	Parent string // parent code, "" for chapters
	Level  Level
}

// CodeSystem is an immutable hierarchy of concepts.
type CodeSystem struct {
	System   System
	concepts map[string]*Concept
}

func newCodeSystem(sys System, concepts []Concept) *CodeSystem {
	cs := &CodeSystem{
		System:   sys,
		concepts: make(map[string]*Concept, len(concepts)),
	}
	for i := range concepts {
		c := &concepts[i]
		if _, dup := cs.concepts[c.Code]; dup {
			panic(fmt.Sprintf("terminology: duplicate %s code %s", sys, c.Code))
		}
		cs.concepts[c.Code] = c
	}
	// Validate parent links.
	for _, c := range cs.concepts {
		if c.Parent == "" {
			continue
		}
		if _, ok := cs.concepts[c.Parent]; !ok {
			panic(fmt.Sprintf("terminology: %s code %s has unknown parent %s", sys, c.Code, c.Parent))
		}
	}
	return cs
}

// Known reports whether the code exists in the system.
func (cs *CodeSystem) Known(code string) bool { return cs.concepts[code] != nil }

// Title returns the concept title, or "" for unknown codes.
func (cs *CodeSystem) Title(code string) string {
	if c := cs.concepts[code]; c != nil {
		return c.Title
	}
	return ""
}

// Chapter returns the chapter-level ancestor of a code (or the code itself
// if it is a chapter), "" if unknown.
func (cs *CodeSystem) Chapter(code string) string {
	c := cs.concepts[code]
	for c != nil {
		if c.Level == LevelChapter {
			return c.Code
		}
		c = cs.concepts[c.Parent]
	}
	return ""
}

// patternCache memoizes compiled anchored code patterns; the workbench
// evaluates the same user-entered pattern against hundreds of thousands of
// entries, so compilation must happen once.
var patternCache sync.Map // string -> *regexp.Regexp

// CompileCodePattern compiles a code regular expression anchored to match
// the entire code, with a process-wide cache.
func CompileCodePattern(pattern string) (*regexp.Regexp, error) {
	if v, ok := patternCache.Load(pattern); ok {
		return v.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(`\A(?:` + pattern + `)\z`)
	if err != nil {
		return nil, fmt.Errorf("terminology: pattern %q: %w", pattern, err)
	}
	patternCache.Store(pattern, re)
	return re, nil
}

// Disjunction builds the regex pattern matching any of the given codes or
// prefixes-with-wildcards, the "disjunctive construct" of the paper.
func Disjunction(patterns ...string) string {
	return strings.Join(patterns, "|")
}

var (
	onceICPC2 sync.Once
	onceICD10 sync.Once
	onceATC   sync.Once
	csICPC2   *CodeSystem
	csICD10   *CodeSystem
	csATC     *CodeSystem
)

// ForICPC2 returns the ICPC-2 code system.
func ForICPC2() *CodeSystem {
	onceICPC2.Do(func() { csICPC2 = newCodeSystem(ICPC2, icpc2Concepts()) })
	return csICPC2
}

// ForICD10 returns the ICD-10 code system.
func ForICD10() *CodeSystem {
	onceICD10.Do(func() { csICD10 = newCodeSystem(ICD10, icd10Concepts()) })
	return csICD10
}

// ForATC returns the ATC code system.
func ForATC() *CodeSystem {
	onceATC.Do(func() { csATC = newCodeSystem(ATC, atcConcepts()) })
	return csATC
}

// For returns the code system by name, or nil.
func For(sys System) *CodeSystem {
	switch sys {
	case ICPC2:
		return ForICPC2()
	case ICD10:
		return ForICD10()
	case ATC:
		return ForATC()
	default:
		return nil
	}
}
