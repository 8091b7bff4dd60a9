package sysimage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadJSON holds LoadJSON to its encoding/json reference: both fail
// with the same error text, or both succeed with deeply equal images. The
// checked-in corpus (testdata/fuzz/FuzzLoadJSON) holds canonical images of
// every app; the seeds below are the inputs the fast decoder must hand to
// the fallback.
func FuzzLoadJSON(f *testing.F) {
	for _, s := range []string{
		// Keys that match a field only case-insensitively, unknown keys,
		// repeated struct and map keys.
		`{"ID":"x"}`,
		`{"Files":{"/":{"path":"/"}}}`,
		`{"id":"x","extra":1}`,
		`{"id":"a","id":"b"}`,
		`{"hw":{"present":true},"hw":{"cpuCores":2}}`,
		`{"files":{"/a":{"path":"/a"},"/a":{"mode":1}}}`,
		`{"env":{"k":"a","k":"b"}}`,
		// null for every field, and inside maps and arrays.
		`{"id":null,"configFiles":null,"files":null,"users":null,"groups":null,"services":null,"env":null,"hw":null,"os":null}`,
		`{"files":{"/":null}}`,
		`{"users":{"u":null}}`,
		`{"groups":{"g":null}}`,
		`{"groups":{"g":{"name":null,"gid":null,"members":[null]}}}`,
		`{"env":{"k":null}}`,
		`{"configFiles":[null]}`,
		`null`,
		// Escapes: canonical, surrogate pair, lone surrogates.
		`{"configFiles":[{"app":"apache","path":"/etc/httpd.conf","content":"<Directory />\n&\t\"\\\/"}]}`,
		`{"id":"😀"}`,
		`{"id":"\ud800"}`,
		`{"id":"\ud800A"}`,
		`{"id":"\udc00x"}`,
		`{"id":"\u12"}`,
		// Invalid UTF-8 and a raw control byte inside a string.
		"{\"id\":\"\xff\"}",
		"{\"id\":\"a\nb\"}",
		// Numbers outside the canonical integer form or range.
		`{"hw":{"cpuCores":1.0}}`,
		`{"hw":{"cpuCores":1e2}}`,
		`{"hw":{"cpuCores":01}}`,
		`{"hw":{"cpuCores":-0}}`,
		`{"files":{"/":{"mode":-1}}}`,
		`{"files":{"/":{"mode":4294967296}}}`,
		`{"hw":{"memBytes":9223372036854775808}}`,
		`{"hw":{"memBytes":-9223372036854775808}}`,
		// Trailing bytes, a BOM, a top-level array, empty input.
		`{"id":"x"}x`,
		`{"id":"x"} {}`,
		"\xef\xbb\xbf{\"id\":\"x\"}",
		`[{"id":"x"}]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadJSON(data)
		want, wantErr := decodeJSONReflect(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("image differs from the encoding/json reference\n got %#v\nwant %#v", got, want)
		}
	})
}

// TestDecoderKnowsEverySchemaKey fills every field of Image and its nested
// structs with a non-zero value and requires the fast decoder to accept the
// encoding. A JSON key added to the schema but not to the decoder would
// silently send every image to the slow fallback; this fails instead.
func TestDecoderKnowsEverySchemaKey(t *testing.T) {
	var im Image
	n := 0
	fillNonZero(t, reflect.ValueOf(&im).Elem(), &n)
	data, err := im.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeImage(data)
	if !ok {
		t.Fatalf("fast decoder rejected a fully populated image; teach decode.go every JSON key of Image and its nested structs:\n%s", data)
	}
	want, err := decodeJSONReflect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast decoder differs from encoding/json\n got %#v\nwant %#v", got, want)
	}
}

// fillNonZero sets every field reachable from v to a distinct non-zero
// value, so each omitempty key is written too.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> é", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint32:
		v.SetUint(uint64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillNonZero(t, k, n)
			fillNonZero(t, e, n)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("image schema has a %s field; teach decode.go and this test its JSON form", v.Type())
	}
}

// TestDecodedImageOutlivesBuffer pins the no-alias contract that lets
// LoadFile and WithPooledRead recycle their buffers: overwriting the input
// after decoding leaves the image unchanged.
func TestDecodedImageOutlivesBuffer(t *testing.T) {
	im := testImage()
	im.SetConfig("apache", "/etc/httpd.conf", "<Directory \"/srv/www\">\n  Options None\n</Directory>\n")
	im.Env["PATH"] = "/usr/bin"
	im.OS = OSInfo{DistName: "ubuntu", Version: "12.04", HostName: "host-1", IPAddress: "10.0.0.1"}
	data, err := im.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeJSONReflect(data)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}
	check := func(how string, got *Image, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: image changed when its input buffer was overwritten", how)
		}
	}

	buf := bytes.Clone(data)
	got, err := LoadJSON(buf)
	scribble(buf)
	check("LoadJSON", got, err)

	err = WithPooledRead(bytes.NewReader(data), len(data), func(body []byte) error {
		var err error
		got, err = LoadJSON(body)
		scribble(body)
		return err
	})
	check("WithPooledRead", got, err)

	path := filepath.Join(t.TempDir(), "img.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	// LoadFile has returned its buffer to the pool: take it (or whichever
	// buffer the pool holds) back out and overwrite its whole capacity.
	bp := readBufPool.Get().(*[]byte)
	scribble((*bp)[:cap(*bp)])
	readBufPool.Put(bp)
	check("LoadFile", got, err)
}
