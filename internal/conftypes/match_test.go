package conftypes

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The regular expressions the syntactic matchers replaced. They are the
// oracle: every hand-written matcher must accept exactly their language.
var (
	reIPv4       = regexp.MustCompile(`^\d{1,3}(\.\d{1,3}){3}$`)
	reIPv6       = regexp.MustCompile(`^[0-9a-fA-F:]+:[0-9a-fA-F:]*$`)
	reNumber     = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?$`)
	reSize       = regexp.MustCompile(`^[0-9]+[KMGTkmgt][Bb]?$`)
	reURL        = regexp.MustCompile(`^[a-z][a-z0-9+.-]*://.+$`)
	reFilePath   = regexp.MustCompile(`^/[^\s]*$`)
	rePartialFP  = regexp.MustCompile(`^[^/\s]+(/[^/\s]+)+$`)
	reFileName   = regexp.MustCompile(`^[\w.-]+\.[\w-]+$`)
	reIdent      = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_-]*$`)
	reMIME       = regexp.MustCompile(`^[\w-]+/[\w.+-]+$`)
	rePermission = regexp.MustCompile(`^0[0-7]{3}$`)
)

// oracleMatch is each predefined type's Match as it was written over the
// regexps above.
var oracleMatch = map[Type]func(string) bool{
	TypeSize: reSize.MatchString,
	TypeURL:  reURL.MatchString,
	TypeIPAddress: func(v string) bool {
		if reIPv4.MatchString(v) {
			for _, part := range strings.Split(v, ".") {
				if n, _ := strconv.Atoi(part); n > 255 {
					return false
				}
			}
			return true
		}
		return strings.Count(v, ":") >= 2 && reIPv6.MatchString(v)
	},
	TypeMIMEType:        func(v string) bool { return reMIME.MatchString(v) && !strings.HasPrefix(v, "/") },
	TypeFilePath:        reFilePath.MatchString,
	TypePartialFilePath: rePartialFP.MatchString,
	TypePermission:      rePermission.MatchString,
	TypePortNumber: func(v string) bool {
		n, err := strconv.Atoi(v)
		return err == nil && n > 0 && n <= 65535
	},
	TypeNumber:    reNumber.MatchString,
	TypeFileName:  func(v string) bool { return reFileName.MatchString(v) && !strings.Contains(v, "/") },
	TypeCharset:   func(v string) bool { return reIdent.MatchString(strings.ReplaceAll(v, ".", "")) },
	TypeLanguage:  func(v string) bool { return len(v) == 2 && reIdent.MatchString(v) },
	TypeUserName:  reIdent.MatchString,
	TypeGroupName: reIdent.MatchString,
}

// rawMatchers pairs each hand-written matcher with the regexp it encodes.
var rawMatchers = []struct {
	name  string
	hand  func(string) bool
	regex *regexp.Regexp
}{
	{"IPv4", matchIPv4, reIPv4},
	{"IPv6", matchIPv6, reIPv6},
	{"Number", matchNumber, reNumber},
	{"Size", matchSize, reSize},
	{"URL", matchURL, reURL},
	{"FilePath", matchFilePath, reFilePath},
	{"PartialFilePath", matchPartialFilePath, rePartialFP},
	{"FileName", matchFileName, reFileName},
	{"Ident", matchIdent, reIdent},
	{"MIME", matchMIME, reMIME},
	{"Permission", matchPermission, rePermission},
}

var predefinedDefs = Predefined()

// checkSyntacticMatch fails t when any hand-written matcher, predefined
// Match, pattern-metacharacter test, or case-folded lexicon lookup
// disagrees with its oracle on v.
func checkSyntacticMatch(t *testing.T, v string) {
	t.Helper()
	for _, m := range rawMatchers {
		if got, want := m.hand(v), m.regex.MatchString(v); got != want {
			t.Errorf("match%s(%q) = %v, regexp says %v", m.name, v, got, want)
		}
	}
	for _, d := range predefinedDefs {
		if got, want := d.Match(v), oracleMatch[d.Name](v); got != want {
			t.Errorf("%s.Match(%q) = %v, oracle says %v", d.Name, v, got, want)
		}
	}
	if got, want := matchIdentDotless(v), reIdent.MatchString(strings.ReplaceAll(v, ".", "")); got != want {
		t.Errorf("matchIdentDotless(%q) = %v, oracle says %v", v, got, want)
	}
	if got, want := LooksLikeRegexOrGlob(v), strings.ContainsAny(v, "*?[]^$()%{}"); got != want {
		t.Errorf("LooksLikeRegexOrGlob(%q) = %v, strings.ContainsAny says %v", v, got, want)
	}
	for _, m := range []map[string]bool{booleanLexicon, charsets, languages, mimeTopLevel} {
		if got, want := inFolded(m, v), m[strings.ToLower(v)]; got != want {
			t.Errorf("inFolded(%q) = %v, strings.ToLower lookup says %v", v, got, want)
		}
	}
}

// syntacticSeeds are the boundary cases of RE2's semantics the matchers
// must reproduce: ASCII-only classes, `.` excluding '\n', invalid UTF-8 as
// one non-space rune, and each pattern's empty-part edges.
var syntacticSeeds = []string{
	"", "\n", "\f", "\v", "/\n", "/a\fb", "/\xff", "a\xffb/c", "x/\xc3\xa9",
	"a::", "::1", "::", ":", ":a", "fe80::1", "1.", "-1.5", "-", "-.5", "1.5.",
	"a/", "/a", "a//b", "a/b/c", "x.", ".x", "a.b", "a..b", "a-b.c_d",
	"255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.5", "1234.1.1.1", "01.002.3.4",
	"16M", "16MB", "16mb", "16Mx", "M", "0644", "0648", "644", "00000",
	"http://x", "http://", "h://\n", "a+b.c-d://y z", "HTTP://x", "ftp://a\nb",
	"text/html", "a/b/c", "/html", "text/", "x-y/a.b+c", "utf-8", "UTF.8", "..", "en", "EN",
	"+80", "-0", "-80", "080", "0", "65535", "65536", "+", "00000000000000000000080", "99999999999999999999",
	"*.php", "^/cgi-bin/", "%{x}", "a\xff$",
	"mysql", "_x", "x_y-z", "On", "DİSABLED", "\u212a", "ıso-8859-1",
}

func TestSyntacticMatchersAgreeWithRegexps(t *testing.T) {
	for _, v := range syntacticSeeds {
		checkSyntacticMatch(t, v)
	}
	// Random strings over an alphabet dense in every pattern's
	// metacharacters, so near-misses of each language are common.
	const alphabet = "0123456789abfAFKMbB:./-+_ \t\n\f\rxz\xff\xc3\xa9*$"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		b := make([]byte, rng.Intn(10))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkSyntacticMatch(t, string(b))
		if t.Failed() {
			return
		}
	}
}

// FuzzSyntacticMatch is the differential fuzz of the hand-written
// syntactic matchers against the regexps they replaced.
func FuzzSyntacticMatch(f *testing.F) {
	for _, s := range syntacticSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		checkSyntacticMatch(t, v)
	})
}

// TestMatchersDoNotAllocate pins the point of the byte loops: a syntactic
// match allocates nothing.
func TestMatchersDoNotAllocate(t *testing.T) {
	defs := Predefined()
	vals := []string{"/var/lib/mysql", "modules/libphp5.so", "10.0.1.1", "fe80::1", "text/html", "UTF-8", "On", "httpd.conf"}
	allocs := testing.AllocsPerRun(20, func() {
		for _, d := range defs {
			for _, v := range vals {
				d.Match(v)
			}
		}
		for _, v := range vals {
			IsBooleanWord(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("syntactic matching allocated %.1f objects per run; want 0", allocs)
	}
}
