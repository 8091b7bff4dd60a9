package sysimage

import (
	"bytes"
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/intern"
)

// decoder reads one Image from the JSON grammar MarshalJSONIndent emits, in
// a single pass over the input with no reflection. It is deliberately
// narrower than encoding/json: wherever the two could disagree (a key that
// matches a field only case-insensitively, an unknown or repeated key, a
// null the encoder never writes, a lone surrogate or invalid UTF-8 that
// encoding/json would replace with U+FFFD, a raw control byte, a number that
// is not a plain in-range integer, trailing bytes) decodeImage reports
// failure and LoadJSON decodes the input with encoding/json instead. So the
// fast path never changes what LoadJSON returns, only how quickly.
//
// No string it keeps aliases the input: each is either copied or the
// interner's canonical copy, so the caller may reuse the buffer as soon as
// decodeImage returns.
type decoder struct {
	data    []byte
	pos     int
	scratch []byte // the decoded bytes of the last string that had escapes
}

// scratchPool recycles the unescape buffer across decodes: configuration
// file contents are always escaped ("\n", "<") and would otherwise
// allocate a buffer the size of each file per image.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// decodeImage decodes a canonical image document. ok is false when the
// input leaves the canonical grammar; the caller must then fall back to
// encoding/json, which either accepts the input or names the error.
func decodeImage(data []byte) (im *Image, ok bool) {
	sp := scratchPool.Get().(*[]byte)
	d := decoder{data: data, scratch: (*sp)[:0]}
	im = new(Image)
	ok = d.image(im) && d.end()
	*sp = d.scratch[:0]
	scratchPool.Put(sp)
	if !ok {
		return nil, false
	}
	im.initMaps()
	return im, true
}

// fieldSet records which keys of one object were seen, so that a repeated
// key (which encoding/json would merge or overwrite) sends the input to the
// fallback.
type fieldSet uint16

func (s *fieldSet) first(i uint) bool {
	bit := fieldSet(1) << i
	if *s&bit != 0 {
		return false
	}
	*s |= bit
	return true
}

// image decodes the top-level object. Only the fields MarshalIndent can
// write as null (nil slices and maps) accept null; each then stays nil, as
// with encoding/json, and decodeImage swaps nil maps for empty ones.
func (d *decoder) image(im *Image) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return seen.first(0) && d.text(&im.ID)
		case "configFiles":
			return seen.first(1) && (d.null() || d.configFiles(im))
		case "files":
			return seen.first(2) && (d.null() || d.files(im))
		case "users":
			return seen.first(3) && (d.null() || d.users(im))
		case "groups":
			return seen.first(4) && (d.null() || d.groups(im))
		case "services":
			return seen.first(5) && (d.null() || d.services(im))
		case "env":
			return seen.first(6) && (d.null() || d.env(im))
		case "hw":
			return seen.first(7) && d.hardware(&im.HW)
		case "os":
			return seen.first(8) && d.osInfo(&im.OS)
		}
		return false
	})
}

func (d *decoder) configFiles(im *Image) bool {
	im.ConfigFiles = []ConfigFile{}
	return d.array(func() bool {
		im.ConfigFiles = append(im.ConfigFiles, ConfigFile{})
		return d.configFile(&im.ConfigFiles[len(im.ConfigFiles)-1])
	})
}

func (d *decoder) configFile(cf *ConfigFile) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "app":
			return seen.first(0) && d.interned(&cf.App)
		case "path":
			return seen.first(1) && d.interned(&cf.Path)
		case "content":
			return seen.first(2) && d.text(&cf.Content)
		}
		return false
	})
}

// files interns its map keys: a fleet's images repeat the same paths (85
// distinct ones across 3000 corpus images), so a path costs no allocation
// after its first sighting, and FileMeta.Path shares the key's string.
func (d *decoder) files(im *Image) bool {
	im.Files = make(map[string]*FileMeta)
	return d.object(func(k []byte) bool {
		p := intern.Bytes(k)
		if _, dup := im.Files[p]; dup {
			return false
		}
		fm := new(FileMeta)
		im.Files[p] = fm
		return d.fileMeta(fm, p)
	})
}

// fileMeta decodes a files entry; key is the map key, which Path shares
// when the two are equal (as they always are in canonical images).
func (d *decoder) fileMeta(fm *FileMeta, key string) bool {
	var seen fieldSet
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "path":
			return seen.first(0) && d.shared(&fm.Path, key)
		case "kind":
			return seen.first(1) && d.intValue((*int)(&fm.Kind))
		case "owner":
			return seen.first(2) && d.interned(&fm.Owner)
		case "group":
			return seen.first(3) && d.interned(&fm.Group)
		case "mode":
			n, ok := d.integer(0, math.MaxUint32)
			fm.Mode = uint32(n)
			return seen.first(4) && ok
		case "size":
			return seen.first(5) && d.int64Value(&fm.Size)
		case "target":
			return seen.first(6) && d.interned(&fm.Target)
		}
		return false
	})
}

// users and groups intern their map keys too: account names are the same
// small vocabulary as the owner and group fields.
func (d *decoder) users(im *Image) bool {
	im.Users = make(map[string]*User)
	return d.object(func(k []byte) bool {
		name := intern.Bytes(k)
		if _, dup := im.Users[name]; dup {
			return false
		}
		u := new(User)
		im.Users[name] = u
		return d.user(u, name)
	})
}

func (d *decoder) user(u *User, key string) bool {
	var seen fieldSet
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			return seen.first(0) && d.shared(&u.Name, key)
		case "uid":
			return seen.first(1) && d.intValue(&u.UID)
		case "gid":
			return seen.first(2) && d.intValue(&u.GID)
		case "home":
			return seen.first(3) && d.interned(&u.Home)
		case "shell":
			return seen.first(4) && d.interned(&u.Shell)
		case "isAdmin":
			return seen.first(5) && d.boolean(&u.IsAdmin)
		}
		return false
	})
}

func (d *decoder) groups(im *Image) bool {
	im.Groups = make(map[string]*Group)
	return d.object(func(k []byte) bool {
		name := intern.Bytes(k)
		if _, dup := im.Groups[name]; dup {
			return false
		}
		g := new(Group)
		im.Groups[name] = g
		return d.group(g, name)
	})
}

func (d *decoder) group(g *Group, key string) bool {
	var seen fieldSet
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			return seen.first(0) && d.shared(&g.Name, key)
		case "gid":
			return seen.first(1) && d.intValue(&g.GID)
		case "members":
			return seen.first(2) && (d.null() || d.members(g))
		}
		return false
	})
}

func (d *decoder) members(g *Group) bool {
	g.Members = []string{}
	return d.array(func() bool {
		g.Members = append(g.Members, "")
		return d.text(&g.Members[len(g.Members)-1])
	})
}

func (d *decoder) services(im *Image) bool {
	im.Services = []Service{}
	return d.array(func() bool {
		im.Services = append(im.Services, Service{})
		return d.service(&im.Services[len(im.Services)-1])
	})
}

func (d *decoder) service(s *Service) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return seen.first(0) && d.interned(&s.Name)
		case "port":
			return seen.first(1) && d.intValue(&s.Port)
		case "protocol":
			return seen.first(2) && d.interned(&s.Protocol)
		}
		return false
	})
}

func (d *decoder) env(im *Image) bool {
	im.Env = make(map[string]string)
	return d.object(func(k []byte) bool {
		name := string(k)
		if _, dup := im.Env[name]; dup {
			return false
		}
		var v string
		ok := d.text(&v)
		im.Env[name] = v
		return ok
	})
}

func (d *decoder) hardware(hw *Hardware) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "present":
			return seen.first(0) && d.boolean(&hw.Present)
		case "cpuCores":
			return seen.first(1) && d.intValue(&hw.CPUCores)
		case "cpuThreads":
			return seen.first(2) && d.intValue(&hw.CPUThreads)
		case "cpuFreqMHz":
			return seen.first(3) && d.intValue(&hw.CPUFreqMHz)
		case "memBytes":
			return seen.first(4) && d.int64Value(&hw.MemBytes)
		case "diskBytes":
			return seen.first(5) && d.int64Value(&hw.DiskBytes)
		}
		return false
	})
}

func (d *decoder) osInfo(o *OSInfo) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "distName":
			return seen.first(0) && d.interned(&o.DistName)
		case "version":
			return seen.first(1) && d.interned(&o.Version)
		case "seLinux":
			return seen.first(2) && d.interned(&o.SELinux)
		case "appArmor":
			return seen.first(3) && d.boolean(&o.AppArmor)
		case "fsType":
			return seen.first(4) && d.interned(&o.FSType)
		case "hostName":
			return seen.first(5) && d.text(&o.HostName)
		case "ipAddress":
			return seen.first(6) && d.text(&o.IPAddress)
		}
		return false
	})
}

// object parses a JSON object, calling member with each decoded key while
// the decoder sits at the member's value. The key bytes are valid only
// until member decodes its first string.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses a JSON array, calling elem once per element.
func (d *decoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

func (d *decoder) skipSpace() {
	i := d.pos
	for i < len(d.data) && jsonSpace[d.data[i]] {
		i++
	}
	d.pos = i
}

var jsonSpace = [256]bool{' ': true, '\n': true, '\t': true, '\r': true}

// consume skips whitespace and then the byte c, reporting whether c was
// there.
func (d *decoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) bool {
	d.skipSpace()
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one comes next. Only the fields that
// MarshalIndent writes as null (nil slices and maps) call it.
func (d *decoder) null() bool { return d.literal("null") }

// end reports whether only whitespace remains.
func (d *decoder) end() bool {
	d.skipSpace()
	return d.pos == len(d.data)
}

func (d *decoder) boolean(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

func (d *decoder) intValue(dst *int) bool {
	n, ok := d.integer(math.MinInt, math.MaxInt)
	*dst = int(n)
	return ok
}

func (d *decoder) int64Value(dst *int64) bool {
	n, ok := d.integer(math.MinInt64, math.MaxInt64)
	*dst = n
	return ok
}

// integer parses an integer within [lo, hi] in the only form encoding/json
// writes: an optional minus sign and digits without a leading zero. A
// fraction, an exponent, "-0" or a value out of range fails, leaving the
// fallback to produce encoding/json's exact result or error.
func (d *decoder) integer(lo, hi int64) (int64, bool) {
	d.skipSpace()
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
		if i-start == 19 { // 19 digits cannot overflow uint64; 20 exceed int64
			return 0, false
		}
		n = n*10 + uint64(d.data[i]-'0')
	}
	if i == start || d.data[start] == '0' && (i > start+1 || neg) {
		return 0, false
	}
	var v int64
	switch {
	case !neg && n <= math.MaxInt64:
		v = int64(n)
	case neg && n <= 1<<63:
		v = -int64(n) // n == 1<<63 wraps to math.MinInt64, as intended
	default:
		return 0, false
	}
	if v < lo || v > hi {
		return 0, false
	}
	d.pos = i
	return v, true
}

// text decodes a string into a fresh copy.
func (d *decoder) text(dst *string) bool {
	b, ok := d.str()
	*dst = string(b)
	return ok
}

// interned decodes a small-vocabulary string through the process-wide
// interner: a hit allocates nothing.
func (d *decoder) interned(dst *string) bool {
	b, ok := d.str()
	*dst = intern.Bytes(b)
	return ok
}

// shared decodes a string that normally repeats its map key, reusing the
// key's string rather than allocating a second copy.
func (d *decoder) shared(dst *string, key string) bool {
	b, ok := d.str()
	if string(b) == key {
		*dst = key
	} else {
		*dst = string(b)
	}
	return ok
}

// str parses a JSON string and returns its decoded bytes: a subslice of the
// input when it has no escapes, else d.scratch. Either is valid only until
// the next call, so callers copy what they keep.
func (d *decoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.pos
	i := plainSpan(d.data, start)
	if i < len(d.data) && d.data[i] == '"' {
		d.pos = i + 1
		return d.data[start:i], true
	}
	b := append(d.scratch[:0], d.data[start:i]...)
	for i < len(d.data) && d.data[i] == '\\' {
		if i+1 == len(d.data) {
			return nil, false
		}
		e := d.data[i+1]
		i += 2
		switch e {
		case '"', '\\', '/':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r, ok := hex4(d.data[i:])
			if !ok {
				return nil, false
			}
			i += 4
			if utf16.IsSurrogate(r) {
				// Only a high surrogate followed by an escaped low one
				// forms a rune; encoding/json turns anything else into
				// U+FFFD, which is the fallback's job.
				lo, ok := rune(0), false
				if len(d.data)-i >= 6 && d.data[i] == '\\' && d.data[i+1] == 'u' {
					lo, ok = hex4(d.data[i+2:])
				}
				if r = utf16.DecodeRune(r, lo); !ok || r == utf8.RuneError {
					return nil, false
				}
				i += 6
			}
			b = utf8.AppendRune(b, r)
		default:
			return nil, false
		}
		j := plainSpan(d.data, i)
		b = append(b, d.data[i:j]...)
		i = j
	}
	d.scratch = b
	if i == len(d.data) || d.data[i] != '"' {
		return nil, false
	}
	d.pos = i + 1
	return b, true
}

// plainSpan returns the end of the run of string bytes starting at i that
// decode to themselves: it stops at a quote, a backslash, a raw control
// byte or an invalid UTF-8 sequence, or at the end of data.
func plainSpan(data []byte, i int) int {
	for i < len(data) {
		if plainASCII[data[i]] {
			i++
			continue
		}
		if data[i] < utf8.RuneSelf {
			return i
		}
		_, n := utf8.DecodeRune(data[i:])
		if n == 1 {
			return i
		}
		i += n
	}
	return i
}

// plainASCII marks the ASCII bytes a JSON string holds verbatim.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 decodes the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
