package sources_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pastas/internal/sources"
	"pastas/internal/synth"
)

// jsonDecode is DecodeBundle's oracle: encoding/json's Decoder with
// DisallowUnknownFields, plus the one rule DecodeBundle adds — only JSON
// whitespace after the value.
func jsonDecode(data []byte) (*sources.Bundle, error) {
	var b sources.Bundle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("data after the bundle")
	}
	return &b, nil
}

// appendBundle is a follow-on delivery of added new patients plus
// follow-on events for a tenth of known ones. appendBundle(t, 1000, 400)
// is the size the ingest-mixed benchmark posts.
func appendBundle(t testing.TB, known, added int) []byte {
	t.Helper()
	first := uint64(known) + 1
	data, err := json.Marshal(synth.GenerateAppend(synth.DefaultConfig(known), first, first+uint64(added)-1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeRules holds one input per rule DecodeBundle shares with
// encoding/json, and whether it is accepted.
var decodeRules = []struct {
	in string
	ok bool
}{
	// Whole documents.
	{`{"persons":[{"id":1,"birth":"1950-01-01","sex":"F","municipality":3}]}`, true},
	{`{}`, true}, {` {} ` + "\n\t\r", true}, {`null`, true},
	{``, false}, {` `, false}, {`{`, false}, {`[]`, false}, {`true`, false}, {`"x"`, false}, {`5`, false},
	{"\xef\xbb\xbf{}", false},
	// Bytes after the bundle: concatenated bundles, garbage, a second null.
	{`{"persons":[]} trailing garbage`, false}, {`{} {}`, false}, {`{}x`, false}, {`null null`, false}, {`nullx`, false},
	// Syntax.
	{`{"persons":[}`, false}, {`{"persons":[{"id":1},]}`, false}, {`{,}`, false}, {`{"persons" []}`, false},
	{`{"persons":[],}`, false}, {`{"persons":[{"sex":tru}]}`, false}, {`{"persons":nul}`, false},
	{`{'persons':[]}`, false}, {`{"persons":[{"id":1}{"id":2}]}`, false},
	// Keys: exact, then case-folded as bytes.EqualFold; escaped keys decode first.
	{`{"PERSONS":[{"ID":1,"Birth":"x","MUNICIPALITY":2}]}`, true},
	{`{"persons":[{"ſex":"F"}]}`, true}, // U+017F long s folds to s
	{`{"gp_claims":[{"date":"2010-01-01","ICPC":"T90"}]}`, true},
	{`{"Gp_Claims":[{"dAtE":"x"}]}`, true}, {`{"gp-claims":[]}`, false}, {`{"persons ":[]}`, false},
	// Unknown keys at any depth, even with a null value.
	{`{"nope":1}`, false}, {`{"persons":[{"id":1,"nope":2}]}`, false},
	{`{"episodes":[{"secondary_icd":["A"],"x":null}]}`, false}, {`{"persons":[],"Persons2":null}`, false},
	// Repeated keys decode again into what the earlier one left.
	{`{"persons":[{"id":1,"id":2}]}`, true},
	{`{"persons":[{"id":1,"sex":"F"},{"id":2}],"persons":[{"id":3}]}`, true},
	{`{"persons":[{"id":1},{"id":2}],"persons":[{"id":3}],"persons":[null,null]}`, true},
	{`{"persons":[{"id":1}],"persons":[]}`, true}, {`{"persons":[{"id":1}],"persons":null}`, true},
	{`{"episodes":[{"secondary_icd":["A","B"]}],"episodes":[{"secondary_icd":[null]}]}`, true},
	// null leaves scalars and records alone, sets slices to nil.
	{`{"persons":null}`, true}, {`{"persons":[null]}`, true}, {`{"persons":[{"id":null,"sex":null}]}`, true},
	{`{"episodes":[{"secondary_icd":null}]}`, true}, {`{"episodes":[{"secondary_icd":[null,"A"]}]}`, true},
	{`{"gp_claims":[{"emergency":null,"amount":null}]}`, true}, {`{"persons":[]}`, true},
	// Numbers.
	{`{"persons":[{"id":18446744073709551615}]}`, true}, {`{"persons":[{"id":18446744073709551616}]}`, false},
	{`{"persons":[{"id":1.0}]}`, false}, {`{"persons":[{"id":1e2}]}`, false}, {`{"persons":[{"id":-1}]}`, false},
	{`{"persons":[{"id":-0}]}`, false}, {`{"persons":[{"municipality":-0}]}`, true},
	{`{"persons":[{"municipality":-9223372036854775808}]}`, true},
	{`{"persons":[{"municipality":9223372036854775808}]}`, false},
	{`{"gp_claims":[{"amount":1e400}]}`, false}, {`{"gp_claims":[{"amount":-1e400}]}`, false},
	{`{"gp_claims":[{"amount":1e-400}]}`, true}, {`{"gp_claims":[{"amount":-0.0}]}`, true},
	{`{"gp_claims":[{"amount":1E+2}]}`, true}, {`{"gp_claims":[{"amount":12.50}]}`, true},
	{`{"gp_claims":[{"amount":01}]}`, false}, {`{"gp_claims":[{"amount":1.}]}`, false},
	{`{"gp_claims":[{"amount":.5}]}`, false}, {`{"gp_claims":[{"amount":+1}]}`, false},
	{`{"gp_claims":[{"amount":1e}]}`, false}, {`{"gp_claims":[{"amount":-}]}`, false},
	{`{"gp_claims":[{"amount":NaN}]}`, false}, {`{"gp_claims":[{"amount":1.5.3}]}`, false},
	// Strings.
	{`{"persons":[{"sex":"😀"}]}`, true}, {`{"persons":[{"sex":"\ud83d"}]}`, true},
	{`{"persons":[{"sex":"\ude00\ud83d"}]}`, true}, {`{"persons":[{"sex":"\ud83dx"}]}`, true},
	{`{"persons":[{"sex":"\ud83dA"}]}`, true}, {`{"persons":[{"sex":"\ud83d😀"}]}`, true},
	{`{"persons":[{"sex":"\b\f\n\r\t\/\\\"\u0000"}]}`, true},
	{"{\"persons\":[{\"sex\":\"\xff\xfe\"}]}", true}, {"{\"persons\":[{\"sex\":\"a\x80\x80b\xe2\x82\"}]}", true},
	{"{\"persons\":[{\"birth\":\"\xef\xbf\xbd ok \xc3\xa5\"}]}", true},
	{"{\"persons\":[{\"sex\":\"\x01\"}]}", false}, {`{"persons":[{"sex":"\x"}]}`, false},
	{`{"persons":[{"sex":"\u12"}]}`, false}, {`{"persons":[{"sex":"\u12G4"}]}`, false},
	{`{"persons":[{"sex":"\ud83d\u12"}]}`, false}, {`{"persons":[{"sex":"abc`, false},
	{`{"persons":[{"sex":"a very long string that is not interned at all"}]}`, true},
	// Wrong types.
	{`{"persons":{}}`, false}, {`{"persons":[1]}`, false}, {`{"persons":[[]]}`, false},
	{`{"persons":[{"id":"1"}]}`, false}, {`{"gp_claims":[{"emergency":1}]}`, false},
	{`{"gp_claims":[{"emergency":"true"}]}`, false}, {`{"gp_claims":[{"emergency":true}]}`, true},
	{`{"persons":[{"sex":5}]}`, false}, {`{"persons":[{"sex":{}}]}`, false},
	{`{"episodes":[{"secondary_icd":"A"}]}`, false}, {`{"episodes":[{"secondary_icd":[1]}]}`, false},
	{`{"persons":"x"}`, false}, {`{"persons":true}`, false},
}

func checkAgrees(t *testing.T, in []byte) (accepted bool) {
	t.Helper()
	got, gotErr := sources.DecodeBundle(in)
	want, wantErr := jsonDecode(in)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: DecodeBundle error %v, encoding/json error %v", in, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeBundle = %+v, encoding/json = %+v", in, got, want)
	}
	return gotErr == nil
}

func TestDecodeBundleRules(t *testing.T) {
	for _, c := range decodeRules {
		if ok := checkAgrees(t, []byte(c.in)); ok != c.ok {
			t.Errorf("%q: accepted = %v, want %v", c.in, ok, c.ok)
		}
	}
	checkAgrees(t, appendBundle(t, 1000, 400))
}

// FuzzDecodeBundleMatchesJSON: on any input DecodeBundle and its oracle
// agree on whether it is an error, and when both accept, the bundles are
// equal.
func FuzzDecodeBundleMatchesJSON(f *testing.F) {
	for _, c := range decodeRules {
		f.Add([]byte(c.in))
	}
	f.Add(appendBundle(f, 20, 2)) // small, so mutations stay fast
	f.Fuzz(func(t *testing.T, in []byte) { checkAgrees(t, in) })
}

// TestDecodeBundleCoversEveryField fills every exported field of every
// record type with a non-zero value and round-trips it through
// json.Marshal and DecodeBundle: a field added to a record without a
// field-table entry fails here as an unknown field.
func TestDecodeBundleCoversEveryField(t *testing.T) {
	var b sources.Bundle
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < bv.NumField(); i++ {
		slice := bv.Field(i)
		if slice.Kind() != reflect.Slice || slice.Type().Elem().Kind() != reflect.Struct {
			t.Fatalf("Bundle.%s is %s, not a slice of records", bv.Type().Field(i).Name, slice.Type())
		}
		rec := reflect.New(slice.Type().Elem()).Elem()
		for j := 0; j < rec.NumField(); j++ {
			f, name := rec.Field(j), rec.Type().Field(j).Name
			switch f.Kind() {
			case reflect.String:
				f.SetString(name + " å\"")
			case reflect.Uint64:
				f.SetUint(uint64(1000*i + j + 1))
			case reflect.Int:
				f.SetInt(-int64(1000*i + j + 1))
			case reflect.Float64:
				f.SetFloat(float64(j) + 0.25)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Slice:
				if f.Type().Elem().Kind() != reflect.String {
					t.Fatalf("%s.%s: no test value for %s", rec.Type().Name(), name, f.Type())
				}
				f.Set(reflect.ValueOf([]string{name + "1", name + "2"}))
			default:
				t.Fatalf("%s.%s: no test value for %s", rec.Type().Name(), name, f.Type())
			}
		}
		slice.Set(reflect.Append(slice, rec, rec))
	}
	data, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sources.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &b) {
		t.Fatalf("DecodeBundle = %+v, want %+v", got, &b)
	}
}

// TestDecodeBundleAllocationBudget: a 400-patient follow-on bundle decodes
// with at most a third of encoding/json's allocations.
func TestDecodeBundleAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations over a 400-patient bundle")
	}
	data := appendBundle(t, 1000, 400)
	allocs := func(decode func([]byte) (*sources.Bundle, error)) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := decode(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	allocs(sources.DecodeBundle)
	got, oracle := allocs(sources.DecodeBundle), allocs(jsonDecode)
	t.Logf("a %d-byte bundle: DecodeBundle %d allocations, encoding/json %d", len(data), got, oracle)
	if got > oracle/3 {
		t.Errorf("DecodeBundle made %d allocations, budget %d (a third of encoding/json's)", got, oracle/3)
	}
}
