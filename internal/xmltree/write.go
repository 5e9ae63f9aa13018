package xmltree

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"
)

// WriteOptions control serialization.
type WriteOptions struct {
	// Indent, when non-empty, pretty-prints with the given unit of
	// indentation. Elements with only text children stay on one line so
	// round-tripping does not introduce significant whitespace.
	Indent string
	// Header, when true, emits an XML declaration first.
	Header bool
}

// Write serializes the document to w.
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	return d.write(bufio.NewWriter(w), opts)
}

// writeFileBuffer is WriteFile's buffer size: large enough that a
// multi-megabyte document takes a few dozen write calls, not thousands.
const writeFileBuffer = 64 << 10

// write serializes the document to bw and flushes it.
func (d *Document) write(bw *bufio.Writer, opts WriteOptions) error {
	if opts.Header {
		if _, err := bw.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"); err != nil {
			return err
		}
	}
	w := &writer{Writer: bw}
	if err := w.node(d.Root, opts.Indent, 0); err != nil {
		return err
	}
	if opts.Indent != "" {
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String serializes the document with pretty-printing; intended for
// tests and debugging.
func (d *Document) String() string {
	var b strings.Builder
	_ = d.Write(&b, WriteOptions{Indent: "  "})
	return b.String()
}

// WriteFile serializes the document to the file at path.
func (d *Document) WriteFile(path string, opts WriteOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("xmltree: %w", err)
	}
	if err := d.write(bufio.NewWriterSize(f, writeFileBuffer), opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// onlyTextChildren reports whether n has no element children.
func onlyTextChildren(n *Node) bool {
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			return false
		}
	}
	return true
}

// writer is a buffered serializer that keeps its indentation pads.
type writer struct {
	*bufio.Writer
	// pads holds the indent unit repeated at least as deep as the
	// deepest level seen so far; a level's pad is a prefix of it.
	pads string
}

// pad returns the indentation of the given depth. A document's indent
// unit is fixed (inline children pass an empty one), so pads is reused.
func (w *writer) pad(indent string, depth int) string {
	if indent == "" {
		return ""
	}
	n := depth * len(indent)
	if n > len(w.pads) {
		w.pads = strings.Repeat(indent, 2*depth)
	}
	return w.pads[:n]
}

func (w *writer) node(n *Node, indent string, depth int) error {
	if n.Kind == TextNode {
		return escape(w.Writer, n.Data, false)
	}
	pad := w.pad(indent, depth)
	if _, err := w.WriteString(pad); err != nil {
		return err
	}
	if err := w.WriteByte('<'); err != nil {
		return err
	}
	if _, err := w.WriteString(n.Name); err != nil {
		return err
	}
	for _, a := range n.Attrs {
		if err := w.WriteByte(' '); err != nil {
			return err
		}
		if _, err := w.WriteString(a.Name); err != nil {
			return err
		}
		if _, err := w.WriteString(`="`); err != nil {
			return err
		}
		if err := escape(w.Writer, a.Value, true); err != nil {
			return err
		}
		if err := w.WriteByte('"'); err != nil {
			return err
		}
	}
	if len(n.Children) == 0 {
		_, err := w.WriteString("/>")
		return err
	}
	if err := w.WriteByte('>'); err != nil {
		return err
	}
	inline := indent == "" || onlyTextChildren(n)
	for _, c := range n.Children {
		if !inline {
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		childIndent := indent
		if inline {
			childIndent = ""
		}
		if err := w.node(c, childIndent, depth+1); err != nil {
			return err
		}
	}
	if !inline {
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		if _, err := w.WriteString(pad); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("</"); err != nil {
		return err
	}
	if _, err := w.WriteString(n.Name); err != nil {
		return err
	}
	return w.WriteByte('>')
}

// escape writes s with the markup characters replaced by entity
// references; attr also escapes '"', newline and tab, as attribute
// values need. Runs that need no escaping are written with one
// WriteString each. Invalid UTF-8 bytes come out as U+FFFD, one per
// byte, as ranging over s would decode them.
func escape(w *bufio.Writer, s string, attr bool) error {
	last := 0
	for i := 0; i < len(s); {
		var rep string
		width := 1
		switch c := s[i]; c {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			if attr {
				rep = "&quot;"
			}
		case '\n':
			if attr {
				rep = "&#10;"
			}
		case '\t':
			if attr {
				rep = "&#9;"
			}
		default:
			if c >= utf8.RuneSelf {
				r, size := utf8.DecodeRuneInString(s[i:])
				if r == utf8.RuneError && size == 1 {
					rep = "\uFFFD"
				}
				width = size
			}
		}
		if rep == "" {
			i += width
			continue
		}
		// bufio.Writer errors are sticky: the final write reports them.
		w.WriteString(s[last:i])
		w.WriteString(rep)
		i += width
		last = i
	}
	_, err := w.WriteString(s[last:])
	return err
}
