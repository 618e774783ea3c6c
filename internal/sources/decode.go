package sources

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeBundle decodes one JSON bundle in a single forward pass, with no
// reflection: one small scanner and one field table per record type. It
// accepts what encoding/json's Decoder with DisallowUnknownFields accepts
// as the first value and yields the same Bundle (keys match as
// bytes.EqualFold does, unknown keys are errors at any depth, a repeated
// key decodes again over what the earlier one left, null leaves scalars
// and records alone and sets slices to nil, a lone surrogate and each
// invalid UTF-8 byte become U+FFFD), with one rule added: only JSON
// whitespace may follow the value. Strings of up to 16 bytes (dates,
// codes) are interned for the call, so a bundle allocates about one
// string per distinct short value.
func DecodeBundle(data []byte) (*Bundle, error) {
	d := &decoder{data: data}
	b := &Bundle{}
	err := object(d, b, bundleFields)
	if d.next(); err == nil && d.pos < len(d.data) {
		err = errors.New("data after the bundle")
	}
	if err != nil {
		return nil, fmt.Errorf("sources: bundle json: offset %d: %w", d.pos, err)
	}
	return b, nil
}

// decoder is the scanner: a read position over the body, a scratch buffer
// for strings that carry escapes or invalid UTF-8, and the intern table,
// one string a slot, picked by hash (a collision costs a copy, not a
// wrong string).
type decoder struct {
	data     []byte
	pos      int
	buf      []byte
	interned [4096]string
}

// next skips JSON whitespace and returns the byte at the read position, 0
// at the end of the input.
func (d *decoder) next() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	for i, c := range d.data[d.pos:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.pos += i
			return c
		}
	}
	d.pos = len(d.data)
	return 0
}

// skip consumes c if it is at the read position.
func (d *decoder) skip(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// expect consumes c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.next(); !d.skip(c) {
		return fmt.Errorf("expected %q", c)
	}
	return nil
}

// literal consumes word (true, false or null) at the read position.
func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return errors.New("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// quoted consumes a string or a null. The bytes alias the input or the
// scratch buffer, so they are valid until the next call.
func (d *decoder) quoted() (s []byte, null bool, err error) {
	switch d.next() {
	case 'n':
		return nil, true, d.literal("null")
	case '"':
	default:
		return nil, false, errors.New("expected a string")
	}
	d.pos++
	start, buf := d.pos, d.buf[:0]
	for d.pos < len(d.data) {
		i := d.pos
		for i < len(d.data) && plain[d.data[i]] {
			i++
		}
		if d.pos == start && i < len(d.data) && d.data[i] == '"' { // nothing to decode
			d.pos = i + 1
			return d.data[start:i], false, nil
		}
		if buf, d.pos = append(buf, d.data[d.pos:i]...), i; i == len(d.data) {
			break
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			d.buf = buf
			return buf, false, nil
		case c == '\\':
			if buf, err = d.escape(buf); err != nil {
				return nil, false, err
			}
		case c < ' ':
			return nil, false, errors.New("control character in string")
		default: // an invalid byte decodes to, and re-encodes as, U+FFFD
			r, n := utf8.DecodeRune(d.data[d.pos:])
			buf = utf8.AppendRune(buf, r)
			d.pos += n
		}
	}
	return nil, false, errors.New("unterminated string")
}

// plain marks the bytes a string copies as they are: ASCII but for
// control characters, the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape appends the escape sequence at the read position (a backslash).
// A \u surrogate pair decodes to one rune; a lone surrogate is U+FFFD.
func (d *decoder) escape(buf []byte) ([]byte, error) {
	d.pos += 2
	if d.pos > len(d.data) {
		return nil, errors.New("unterminated string")
	}
	c := d.data[d.pos-1]
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		return append(buf, "\"\\/\b\f\n\r\t"[i]), nil
	}
	r := hex4(d.data[d.pos:])
	if c != 'u' || r < 0 {
		return nil, errors.New("invalid escape")
	}
	d.pos += 4
	if utf16.IsSurrogate(r) {
		r2 := rune(-1)
		if bytes.HasPrefix(d.data[d.pos:], []byte(`\u`)) {
			r2 = hex4(d.data[d.pos+2:])
		}
		if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
			d.pos += 6
		}
	}
	return utf8.AppendRune(buf, r), nil
}

// hex4 reads four hex digits, -1 if there are not four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	n, err := strconv.ParseUint(string(b[:4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}

// number consumes an RFC 8259 number and returns its bytes, or a null and
// returns nil.
func (d *decoder) number() ([]byte, error) {
	switch c := d.next(); {
	case c == 'n':
		return nil, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, errors.New("expected a number")
	}
	start := d.pos
	digits := func() bool {
		n := d.pos
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > n
	}
	d.skip('-')
	ok := d.skip('0') || digits()
	if ok && d.skip('.') {
		ok = digits()
	}
	if ok && (d.skip('e') || d.skip('E')) {
		_ = d.skip('+') || d.skip('-')
		ok = digits()
	}
	if !ok {
		return nil, errors.New("invalid number")
	}
	return d.data[start:d.pos], nil
}

// The scalar setters: null leaves the field as it is; a value of another
// type, or a number out of the field's range, is an error.

func (d *decoder) string(p *string) error {
	b, null, err := d.quoted()
	if err != nil || null {
		return err
	}
	if len(b) > 16 {
		*p = string(b)
		return nil
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.interned[h%uint32(len(d.interned))]
	if *slot != string(b) {
		*slot = string(b)
	}
	*p = *slot
	return nil
}

func (d *decoder) bool(p *bool) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return errors.New("expected a bool")
}

func (d *decoder) uint(p *uint64) error {
	lit, err := d.number()
	if lit != nil {
		*p, err = strconv.ParseUint(string(lit), 10, 64)
	}
	return err
}

func (d *decoder) int(p *int) error {
	lit, err := d.number()
	if lit != nil {
		var n int64
		n, err = strconv.ParseInt(string(lit), 10, 0)
		*p = int(n)
	}
	return err
}

func (d *decoder) float(p *float64) error {
	lit, err := d.number()
	if lit != nil {
		*p, err = strconv.ParseFloat(string(lit), 64)
	}
	return err
}

// field is one entry of a record type's field table.
type field[T any] struct {
	name string
	set  func(*decoder, *T) error
}

// object decodes a JSON object into *r through its field table; null
// leaves *r unchanged. A key matches a name exactly, else as
// bytes.EqualFold does (no two names of a table fold alike).
func object[T any](d *decoder, r *T, fields []field[T]) error {
	if d.next() == 'n' {
		return d.literal("null")
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	for more := d.next() != '}'; more; more = d.skip(',') {
		if d.next() != '"' {
			return errors.New("expected a key")
		}
		key, _, err := d.quoted()
		if err != nil {
			return err
		}
		i := 0
		for i < len(fields) && string(key) != fields[i].name {
			i++
		}
		if i == len(fields) {
			i = 0
			for i < len(fields) && !bytes.EqualFold(key, []byte(fields[i].name)) {
				i++
			}
		}
		if i == len(fields) {
			return fmt.Errorf("unknown field %q", key)
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := fields[i].set(d, r); err != nil {
			return err
		}
		d.next()
	}
	return d.expect('}')
}

// slice decodes a JSON array into *s as encoding/json does: element i
// decodes in place into (*s)[i] while the slice's length or capacity
// reaches, an empty array is a non-nil empty slice, and null sets nil.
func slice[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	if d.next() == 'n' {
		*s = nil
		return d.literal("null")
	}
	if err := d.expect('['); err != nil {
		return err
	}
	v, i := *s, 0
	for more := d.next() != ']'; more; more = d.skip(',') {
		if i >= len(v) && i < cap(v) {
			v = v[:i+1]
		} else if i >= len(v) {
			var zero T
			v = append(v, zero)
		}
		if err := elem(d, &v[i]); err != nil {
			return err
		}
		i++
		d.next()
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return d.expect(']')
}

// records decodes an array of records of one field table.
func records[T any](d *decoder, s *[]T, fields []field[T]) error {
	return slice(d, s, func(d *decoder, r *T) error { return object(d, r, fields) })
}

// The field tables: one entry per exported field, named by its JSON tag.

var personFields = []field[Person]{
	{"id", func(d *decoder, r *Person) error { return d.uint(&r.ID) }},
	{"birth", func(d *decoder, r *Person) error { return d.string(&r.BirthDate) }},
	{"sex", func(d *decoder, r *Person) error { return d.string(&r.Sex) }},
	{"municipality", func(d *decoder, r *Person) error { return d.int(&r.Municipality) }},
}

var gpFields = []field[GPClaim]{
	{"person", func(d *decoder, r *GPClaim) error { return d.uint(&r.Person) }},
	{"date", func(d *decoder, r *GPClaim) error { return d.string(&r.Date) }},
	{"emergency", func(d *decoder, r *GPClaim) error { return d.bool(&r.Emergency) }},
	{"icpc", func(d *decoder, r *GPClaim) error { return d.string(&r.ICPC) }},
	{"systolic", func(d *decoder, r *GPClaim) error { return d.int(&r.Systolic) }},
	{"diastolic", func(d *decoder, r *GPClaim) error { return d.int(&r.Diastolic) }},
	{"text", func(d *decoder, r *GPClaim) error { return d.string(&r.Text) }},
	{"amount", func(d *decoder, r *GPClaim) error { return d.float(&r.Amount) }},
}

var prescriptionFields = []field[Prescription]{
	{"person", func(d *decoder, r *Prescription) error { return d.uint(&r.Person) }},
	{"date", func(d *decoder, r *Prescription) error { return d.string(&r.Date) }},
	{"atc", func(d *decoder, r *Prescription) error { return d.string(&r.ATC) }},
	{"duration_days", func(d *decoder, r *Prescription) error { return d.int(&r.DurationDays) }},
}

var episodeFields = []field[HospitalEpisode]{
	{"person", func(d *decoder, r *HospitalEpisode) error { return d.uint(&r.Person) }},
	{"admitted", func(d *decoder, r *HospitalEpisode) error { return d.string(&r.Admitted) }},
	{"discharged", func(d *decoder, r *HospitalEpisode) error { return d.string(&r.Discharged) }},
	{"mode", func(d *decoder, r *HospitalEpisode) error { return d.string(&r.Mode) }},
	{"main_icd", func(d *decoder, r *HospitalEpisode) error { return d.string(&r.MainICD) }},
	{"secondary_icd", func(d *decoder, r *HospitalEpisode) error { return slice(d, &r.SecondaryICD, (*decoder).string) }},
	{"department", func(d *decoder, r *HospitalEpisode) error { return d.string(&r.Department) }},
}

var municipalFields = []field[MunicipalService]{
	{"person", func(d *decoder, r *MunicipalService) error { return d.uint(&r.Person) }},
	{"service", func(d *decoder, r *MunicipalService) error { return d.string(&r.Service) }},
	{"from", func(d *decoder, r *MunicipalService) error { return d.string(&r.From) }},
	{"to", func(d *decoder, r *MunicipalService) error { return d.string(&r.To) }},
}

var specialistFields = []field[SpecialistClaim]{
	{"person", func(d *decoder, r *SpecialistClaim) error { return d.uint(&r.Person) }},
	{"date", func(d *decoder, r *SpecialistClaim) error { return d.string(&r.Date) }},
	{"icd", func(d *decoder, r *SpecialistClaim) error { return d.string(&r.ICD) }},
	{"specialty", func(d *decoder, r *SpecialistClaim) error { return d.string(&r.Specialty) }},
	{"text", func(d *decoder, r *SpecialistClaim) error { return d.string(&r.Text) }},
}

var physioFields = []field[PhysioClaim]{
	{"person", func(d *decoder, r *PhysioClaim) error { return d.uint(&r.Person) }},
	{"date", func(d *decoder, r *PhysioClaim) error { return d.string(&r.Date) }},
	{"icpc", func(d *decoder, r *PhysioClaim) error { return d.string(&r.ICPC) }},
	{"sessions", func(d *decoder, r *PhysioClaim) error { return d.int(&r.Sessions) }},
}

var bundleFields = []field[Bundle]{
	{"persons", func(d *decoder, b *Bundle) error { return records(d, &b.Persons, personFields) }},
	{"gp_claims", func(d *decoder, b *Bundle) error { return records(d, &b.GPClaims, gpFields) }},
	{"prescriptions", func(d *decoder, b *Bundle) error { return records(d, &b.Prescriptions, prescriptionFields) }},
	{"episodes", func(d *decoder, b *Bundle) error { return records(d, &b.Episodes, episodeFields) }},
	{"municipal", func(d *decoder, b *Bundle) error { return records(d, &b.Municipal, municipalFields) }},
	{"specialist", func(d *decoder, b *Bundle) error { return records(d, &b.Specialist, specialistFields) }},
	{"physio", func(d *decoder, b *Bundle) error { return records(d, &b.Physio, physioFields) }},
}
