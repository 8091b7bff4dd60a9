// Package conftypes implements EnCore's semantic type system for
// configuration values (Table 4 of the paper).
//
// A configuration value is not an arbitrary string: it usually names an
// object in the executing environment — a file path, a user, a port, a
// size. The package infers a semantic type per configuration entry with a
// two-step process: a cheap *syntactic match* proposes candidate types, and
// a heavyweight *semantic verification* validates the proposal against the
// system image (does the path exist? is the user in /etc/passwd? is the
// port registered?). The first step prunes improbable types so inference
// stays fast; the second guarantees accuracy.
//
// Each syntactic pattern is written down as a regular expression (see the
// matchers in match.go) but implemented as a byte loop that accepts exactly
// that expression's language under Go's RE2 semantics; the tests keep the
// regexps as the differential oracle. Neither step allocates on the check
// path: matchers scan bytes, lexicon lookups fold case in a stack buffer,
// and file-name verification scans the image's file table in place. The
// detector runs these per target value and inference per training sample,
// so both learning and scanning pay only for the comparison itself.
package conftypes

import (
	"strings"

	"repro/internal/sysimage"
)

// Type names a semantic configuration-value type.
type Type string

// The predefined types of Table 4, plus the auxiliary types used by
// augmented attributes (Enum, Permission).
const (
	TypeFilePath        Type = "FilePath"
	TypePartialFilePath Type = "PartialFilePath"
	TypeFileName        Type = "FileName"
	TypeUserName        Type = "UserName"
	TypeGroupName       Type = "GroupName"
	TypeIPAddress       Type = "IPAddress"
	TypePortNumber      Type = "PortNumber"
	TypeNumber          Type = "Number"
	TypeURL             Type = "URL"
	TypeMIMEType        Type = "MIMEType"
	TypeCharset         Type = "Charset"
	TypeLanguage        Type = "Language"
	TypeSize            Type = "Size"
	TypeBoolean         Type = "Boolean"
	TypeString          Type = "String"
	TypeEnum            Type = "Enum"
	TypePermission      Type = "Permission"
)

// IsTrivial reports whether the type carries no environment semantics
// (String/Number in the paper's Table 11 terminology).
func (t Type) IsTrivial() bool {
	return t == TypeString || t == TypeNumber || t == ""
}

// Def describes one inferable type: its name, the syntactic pattern, and an
// optional semantic verifier consulting the system image. A nil Verify
// means the type has no external reference (N/A rows in Table 4).
type Def struct {
	Name   Type
	Match  func(value string) bool
	Verify func(value string, img *sysimage.Image) bool
}

// booleanLexicon is the value set that marks Boolean entries. It includes
// "0"/"1", which — exactly as in the paper — makes integer entries whose
// training values happen to all be 0 or 1 infer as Boolean (a measured
// false-type source in Table 11).
var booleanLexicon = map[string]bool{
	"on": true, "off": true, "true": true, "false": true,
	"yes": true, "no": true, "0": true, "1": true,
	"enabled": true, "disabled": true, "none": true,
}

// IsBooleanWord reports whether the value belongs to the boolean lexicon.
func IsBooleanWord(v string) bool {
	return inFolded(booleanLexicon, v)
}

// mimeTopLevel is the IANA top-level media-type registry subset used for
// MIME verification.
var mimeTopLevel = map[string]bool{
	"application": true, "audio": true, "font": true, "image": true,
	"message": true, "model": true, "multipart": true, "text": true,
	"video": true,
}

// charsets is the IANA character-set subset used for Charset verification.
var charsets = map[string]bool{
	"utf-8": true, "utf8": true, "utf-16": true, "iso-8859-1": true,
	"iso-8859-15": true, "latin1": true, "latin2": true, "ascii": true,
	"us-ascii": true, "windows-1252": true, "koi8-r": true, "big5": true,
	"gbk": true, "gb2312": true, "euc-jp": true, "shift_jis": true,
}

// languages is the ISO 639-1 subset used for Language verification.
var languages = map[string]bool{
	"aa": true, "de": true, "en": true, "es": true, "fr": true, "it": true,
	"ja": true, "ko": true, "nl": true, "pl": true, "pt": true, "ru": true,
	"sv": true, "zh": true, "cs": true, "da": true, "el": true, "fi": true,
	"he": true, "hi": true, "tr": true,
}

// Predefined returns the predefined type definitions in inference priority
// order. Order matters: earlier definitions win when several patterns
// match, mirroring the crude-guess step of the paper.
func Predefined() []*Def {
	return []*Def{
		{
			Name:  TypeSize,
			Match: matchSize,
		},
		{
			Name:  TypeURL,
			Match: matchURL,
		},
		{
			Name: TypeIPAddress,
			Match: func(v string) bool {
				if matchIPv4(v) {
					return ipv4OctetsInRange(v)
				}
				return strings.Count(v, ":") >= 2 && matchIPv6(v)
			},
		},
		{
			Name:  TypeMIMEType,
			Match: matchMIME,
			Verify: func(v string, _ *sysimage.Image) bool {
				top, _, _ := strings.Cut(v, "/")
				return inFolded(mimeTopLevel, top)
			},
		},
		{
			Name:  TypeFilePath,
			Match: matchFilePath,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.Exists(v)
			},
		},
		{
			Name:  TypePartialFilePath,
			Match: matchPartialFilePath,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && hasPathEndingIn(img, v)
			},
		},
		{
			Name:  TypePermission,
			Match: matchPermission,
		},
		{
			Name: TypePortNumber,
			Match: func(v string) bool {
				_, ok := parsePort(v)
				return ok
			},
			Verify: func(v string, img *sysimage.Image) bool {
				n, _ := parsePort(v)
				return img != nil && img.PortRegistered(n)
			},
		},
		{
			Name:  TypeNumber,
			Match: matchNumber,
		},
		{
			Name:  TypeFileName,
			Match: matchFileName,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && hasPathEndingIn(img, v)
			},
		},
		{
			Name:  TypeCharset,
			Match: matchIdentDotless,
			Verify: func(v string, _ *sysimage.Image) bool {
				return inFolded(charsets, v)
			},
		},
		{
			Name:  TypeLanguage,
			Match: func(v string) bool { return len(v) == 2 && matchIdent(v) },
			Verify: func(v string, _ *sysimage.Image) bool {
				return inFolded(languages, v)
			},
		},
		{
			Name:  TypeUserName,
			Match: matchIdent,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.UserExists(v)
			},
		},
		{
			Name:  TypeGroupName,
			Match: matchIdent,
			Verify: func(v string, img *sysimage.Image) bool {
				return img != nil && img.GroupExists(v)
			},
		},
	}
}

// ipv4OctetsInRange reports whether every dot-separated part of a value
// already shaped like an IPv4 address (matchIPv4: one to three digits per
// part) is at most 255.
func ipv4OctetsInRange(v string) bool {
	n := 0
	for i := 0; i <= len(v); i++ {
		if i == len(v) || v[i] == '.' {
			if n > 255 {
				return false
			}
			n = 0
			continue
		}
		n = n*10 + int(v[i]-'0')
	}
	return true
}

// hasPathEndingIn reports whether some path in the image ends in "/"+v —
// the semantic check shared by FileName and PartialFilePath. It scans the
// file table in place; the answer does not depend on iteration order.
func hasPathEndingIn(img *sysimage.Image, v string) bool {
	for p := range img.Files {
		if len(p) > len(v) && p[len(p)-len(v)-1] == '/' && p[len(p)-len(v):] == v {
			return true
		}
	}
	return false
}

// inFolded reports m[strings.ToLower(v)]. Short ASCII values — every value
// the lexicons can hold — are folded in a stack buffer so the lookup does
// not allocate; anything else takes strings.ToLower, whose Unicode folding
// can map a non-ASCII rune onto an ASCII letter.
func inFolded(m map[string]bool, v string) bool {
	var buf [16]byte
	if len(v) > len(buf) {
		return m[strings.ToLower(v)]
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 0x80 {
			return m[strings.ToLower(v)]
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return m[string(buf[:len(v)])]
}
