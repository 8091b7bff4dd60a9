package conftypes

// Syntactic matchers: the first step of two-step type inference, written
// as byte loops. Each function accepts exactly the language of the regular
// expression in its comment under Go RE2 semantics — \d, \w and \s are
// ASCII-only (\s is [\t\n\f\r ]), `.` excludes '\n', and `$` anchors at
// the end of the text. The classes that admit non-ASCII input are all
// negated ASCII sets, so a byte >= 0x80 (whether part of a valid UTF-8
// sequence or an invalid byte, which RE2 reads as one U+FFFD rune) is
// matched exactly when the negated class would match that rune. The
// regexps themselves live in the tests as the differential oracle.

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isAlpha(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// isWord is RE2's \w: [0-9A-Za-z_].
func isWord(c byte) bool { return isDigit(c) || isAlpha(c) || c == '_' }

// isSpace is RE2's \s: [\t\n\f\r ].
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// matchIPv4 is ^\d{1,3}(\.\d{1,3}){3}$.
func matchIPv4(s string) bool {
	i := 0
	for part := 0; part < 4; part++ {
		if part > 0 {
			if i == len(s) || s[i] != '.' {
				return false
			}
			i++
		}
		n := 0
		for i < len(s) && isDigit(s[i]) && n < 3 {
			i++
			n++
		}
		if n == 0 {
			return false
		}
	}
	return i == len(s)
}

// matchIPv6 is ^[0-9a-fA-F:]+:[0-9a-fA-F:]*$: hex digits and colons only,
// with a colon somewhere after the first byte.
func matchIPv6(s string) bool {
	colon := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			colon = colon || i > 0
		} else if !isHex(c) {
			return false
		}
	}
	return colon
}

// matchNumber is ^-?[0-9]+(\.[0-9]+)?$.
func matchNumber(s string) bool {
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	i := 0
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	if i == 0 {
		return false
	}
	if i == len(s) {
		return true
	}
	if s[i] != '.' || i+1 == len(s) {
		return false
	}
	for i++; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return true
}

// matchSize is ^[0-9]+[KMGTkmgt][Bb]?$.
func matchSize(s string) bool {
	i := 0
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	if i == 0 || i == len(s) {
		return false
	}
	switch s[i] {
	case 'K', 'M', 'G', 'T', 'k', 'm', 'g', 't':
	default:
		return false
	}
	rest := s[i+1:]
	return rest == "" || rest == "B" || rest == "b"
}

// matchURL is ^[a-z][a-z0-9+.-]*://.+$. The scheme class excludes ':', so
// the scheme is the longest run of scheme bytes and must be followed by
// "://" and at least one more byte, none of them '\n' (a '\n' byte never
// occurs inside a multi-byte UTF-8 sequence).
func matchURL(s string) bool {
	if len(s) == 0 || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	i := 1
	for i < len(s) {
		c := s[i]
		if 'a' <= c && c <= 'z' || isDigit(c) || c == '+' || c == '.' || c == '-' {
			i++
			continue
		}
		break
	}
	if len(s)-i < 4 || s[i:i+3] != "://" {
		return false
	}
	for j := i + 3; j < len(s); j++ {
		if s[j] == '\n' {
			return false
		}
	}
	return true
}

// matchFilePath is ^/[^\s]*$.
func matchFilePath(s string) bool {
	if len(s) == 0 || s[0] != '/' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if isSpace(s[i]) {
			return false
		}
	}
	return true
}

// matchPartialFilePath is ^[^/\s]+(/[^/\s]+)+$: at least two non-empty
// '/'-separated segments, no whitespace.
func matchPartialFilePath(s string) bool {
	segLen, slashes := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '/':
			if segLen == 0 {
				return false
			}
			segLen = 0
			slashes++
		case isSpace(c):
			return false
		default:
			segLen++
		}
	}
	return slashes > 0 && segLen > 0
}

// matchFileName is ^[\w.-]+\.[\w-]+$: word bytes, dots and dashes, where
// the last dot has at least one byte on each side (the extension class
// excludes '.', so the separating dot is necessarily the last one).
func matchFileName(s string) bool {
	dot := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			dot = i
		} else if !isWord(c) && c != '-' {
			return false
		}
	}
	return dot > 0 && dot < len(s)-1
}

// matchIdent is ^[a-zA-Z][a-zA-Z0-9_-]*$.
func matchIdent(s string) bool {
	if len(s) == 0 || !isAlpha(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !isWord(c) && c != '-' {
			return false
		}
	}
	return true
}

// matchIdentDotless is matchIdent over s with every '.' removed, without
// building the stripped string.
func matchIdentDotless(s string) bool {
	first := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			continue
		}
		if first {
			if !isAlpha(c) {
				return false
			}
			first = false
		} else if !isWord(c) && c != '-' {
			return false
		}
	}
	return !first
}

// matchMIME is ^[\w-]+/[\w.+-]+$.
func matchMIME(s string) bool {
	slash := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '/':
			if slash >= 0 {
				return false
			}
			slash = i
		case isWord(c) || c == '-':
		case (c == '.' || c == '+') && slash >= 0:
		default:
			return false
		}
	}
	return slash > 0 && slash < len(s)-1
}

// parsePort reads v as strconv.Atoi would (optional sign, decimal digits)
// and reports whether the value is a port in 1..65535. Unlike Atoi it
// allocates nothing on malformed input.
func parsePort(s string) (int, bool) {
	if len(s) > 0 && s[0] == '+' {
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return 0, false
		}
		// Past 65535 the answer is no whatever follows; stopping here
		// also rules out overflow.
		if n = n*10 + int(s[i]-'0'); n > 65535 {
			return 0, false
		}
	}
	return n, n > 0
}

// matchPermission is ^0[0-7]{3}$.
func matchPermission(s string) bool {
	if len(s) != 4 || s[0] != '0' {
		return false
	}
	for i := 1; i < 4; i++ {
		if s[i] < '0' || s[i] > '7' {
			return false
		}
	}
	return true
}
