package confparse

import (
	"fmt"
	"strings"
)

// ApacheDialect parses the Apache httpd directive format: one directive per
// line with whitespace-separated arguments, '#' comments, and nested
// container sections such as <Directory /var/www> ... </Directory>.
type ApacheDialect struct{}

// NewApacheDialect returns the dialect for Apache-style configuration.
func NewApacheDialect() *ApacheDialect { return &ApacheDialect{} }

// Name implements Dialect.
func (d *ApacheDialect) Name() string { return "apache" }

// Parse implements Dialect.
func (d *ApacheDialect) Parse(content string) ([]*Entry, error) {
	var entries []*Entry
	var stack []string // open section path elements
	for lineNo, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(stripComment(raw, "#"))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "</"):
			name := strings.TrimSuffix(strings.TrimPrefix(line, "</"), ">")
			if len(stack) == 0 {
				return nil, fmt.Errorf("line %d: closing </%s> with no open section", lineNo+1, name)
			}
			top := stack[len(stack)-1]
			if !strings.EqualFold(sectionKind(top), name) {
				return nil, fmt.Errorf("line %d: closing </%s> does not match open <%s>", lineNo+1, name, sectionKind(top))
			}
			stack = stack[:len(stack)-1]
		case strings.HasPrefix(line, "<"):
			if !strings.HasSuffix(line, ">") {
				return nil, fmt.Errorf("line %d: unterminated section %q", lineNo+1, line)
			}
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "<"), ">")
			fields := splitArgs(inner)
			if len(fields) == 0 {
				return nil, fmt.Errorf("line %d: empty section", lineNo+1)
			}
			// The section container itself is observable: emit a
			// pseudo-entry carrying its arguments so rules can correlate
			// against them (e.g. DocumentRoot with <Directory> paths).
			entries = append(entries, &Entry{
				Section:   strings.Join(stack, "|"),
				Key:       fields[0],
				Values:    fields[1:],
				Line:      lineNo + 1,
				IsSection: true,
			})
			elem := fields[0]
			if len(fields) > 1 {
				elem += ":" + strings.Join(fields[1:], ":")
			}
			stack = append(stack, elem)
		default:
			fields := splitArgs(line)
			if len(fields) == 0 {
				continue
			}
			entries = append(entries, &Entry{
				Section: strings.Join(stack, "|"),
				Key:     fields[0],
				Values:  fields[1:],
				Line:    lineNo + 1,
			})
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("unclosed section <%s>", sectionKind(stack[len(stack)-1]))
	}
	return entries, nil
}

// Render implements Dialect. Entries are emitted in order, opening and
// closing section containers as the section path changes.
func (d *ApacheDialect) Render(entries []*Entry) string {
	var b strings.Builder
	var open []string
	for _, e := range entries {
		want := splitSection(e.Section)
		if e.IsSection {
			// A section pseudo-entry renders as the container itself:
			// extend the desired path with its own element and emit no
			// directive line.
			elem := e.Key
			if len(e.Values) > 0 {
				elem += ":" + strings.Join(e.Values, ":")
			}
			want = append(want, elem)
		}
		// Close sections no longer shared with the desired path.
		common := 0
		for common < len(open) && common < len(want) && open[common] == want[common] {
			common++
		}
		for i := len(open) - 1; i >= common; i-- {
			fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat("    ", i), sectionKind(open[i]))
		}
		open = open[:common]
		// Open the remaining sections of the desired path.
		for i := common; i < len(want); i++ {
			kind, arg := sectionKindArg(want[i])
			if arg != "" {
				fmt.Fprintf(&b, "%s<%s %s>\n", strings.Repeat("    ", i), kind, arg)
			} else {
				fmt.Fprintf(&b, "%s<%s>\n", strings.Repeat("    ", i), kind)
			}
			open = append(open, want[i])
		}
		if e.IsSection {
			continue
		}
		indent := strings.Repeat("    ", len(open))
		if len(e.Values) > 0 {
			fmt.Fprintf(&b, "%s%s %s\n", indent, e.Key, strings.Join(quoteArgs(e.Values), " "))
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, e.Key)
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat("    ", i), sectionKind(open[i]))
	}
	return b.String()
}

// splitSection splits a nested-section path. Nested containers are joined
// with '|' (not '/') because section arguments are often file paths that
// themselves contain slashes.
func splitSection(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "|")
}

// sectionKind returns the container kind of a section path element
// ("Directory:/var/www" -> "Directory").
func sectionKind(elem string) string {
	kind, _ := sectionKindArg(elem)
	return kind
}

func sectionKindArg(elem string) (kind, arg string) {
	if i := strings.Index(elem, ":"); i >= 0 {
		return elem[:i], strings.ReplaceAll(elem[i+1:], ":", " ")
	}
	return elem, ""
}

// stripComment removes an unquoted trailing comment introduced by marker.
func stripComment(line, marker string) string {
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case (marker == "" || c == marker[0]) && strings.HasPrefix(line[i:], marker):
			return line[:i]
		}
	}
	return line
}

// splitArgs tokenizes a directive line, honoring double- and single-quoted
// arguments.
func splitArgs(line string) []string {
	var args []string
	var cur strings.Builder
	inQuote := byte(0)
	flush := func() {
		if cur.Len() > 0 {
			args = append(args, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == ' ' || c == '\t':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return args
}

// quoteArgs re-quotes arguments containing whitespace.
func quoteArgs(args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		if strings.ContainsAny(a, " \t") {
			out[i] = `"` + a + `"`
		} else {
			out[i] = a
		}
	}
	return out
}
