package xmltree

import (
	"bufio"
	"strings"
	"testing"
)

// runeWriteNode is the rune-by-rune serializer that the run-based one
// replaced, kept as its differential oracle: one WriteRune per rune and
// a fresh strings.Repeat pad per node.
func runeWriteNode(w *bufio.Writer, n *Node, indent string, depth int) {
	pad := ""
	if indent != "" {
		pad = strings.Repeat(indent, depth)
	}
	if n.Kind == TextNode {
		runeEscape(w, n.Data, false)
		return
	}
	w.WriteString(pad + "<" + n.Name)
	for _, a := range n.Attrs {
		w.WriteString(" " + a.Name + `="`)
		runeEscape(w, a.Value, true)
		w.WriteByte('"')
	}
	if len(n.Children) == 0 {
		w.WriteString("/>")
		return
	}
	w.WriteByte('>')
	inline := indent == "" || onlyTextChildren(n)
	for _, c := range n.Children {
		childIndent := indent
		if inline {
			childIndent = ""
		} else {
			w.WriteByte('\n')
		}
		runeWriteNode(w, c, childIndent, depth+1)
	}
	if !inline {
		w.WriteString("\n" + pad)
	}
	w.WriteString("</" + n.Name + ">")
}

func runeEscape(w *bufio.Writer, s string, attr bool) {
	for _, r := range s {
		switch {
		case r == '&':
			w.WriteString("&amp;")
		case r == '<':
			w.WriteString("&lt;")
		case r == '>':
			w.WriteString("&gt;")
		case attr && r == '"':
			w.WriteString("&quot;")
		case attr && r == '\n':
			w.WriteString("&#10;")
		case attr && r == '\t':
			w.WriteString("&#9;")
		default:
			w.WriteRune(r)
		}
	}
}

func runeWrite(d *Document, opts WriteOptions) string {
	var b strings.Builder
	w := bufio.NewWriter(&b)
	if opts.Header {
		w.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	}
	runeWriteNode(w, d.Root, opts.Indent, 0)
	if opts.Indent != "" {
		w.WriteByte('\n')
	}
	w.Flush()
	return b.String()
}

// FuzzWriteMatchesRuneWriter checks that the run-based escaping writes
// exactly what the rune-by-rune writer did, for text and attribute
// values alike, invalid UTF-8 included, at several depths and indents.
func FuzzWriteMatchesRuneWriter(f *testing.F) {
	for _, s := range []string{
		"", "plain", `a&b<c>d"e'f`, "line\nbreak\ttab\rcr",
		"héllo wörld ☃ 𝄞", "bad \xff\xfe utf8 \xe2\x82", "\xef\xbf\xbd real U+FFFD",
		"&&&<<<>>>", "\xed\xa0\x80 surrogate", strings.Repeat("x", 5000) + "&",
	} {
		f.Add(s, s)
	}
	f.Fuzz(func(t *testing.T, text, attr string) {
		root := NewElement("r")
		root.SetAttr("a", attr)
		inner := NewElement("c")
		inner.SetAttr("b", text)
		inner.SetAttr("c", attr)
		inner.AppendChild(NewText(text))
		deep := NewElement("d")
		deep.AppendChild(NewElement("e"))
		deep.AppendChild(NewText(attr))
		root.AppendChild(inner)
		root.AppendChild(NewText(text))
		root.AppendChild(deep)
		doc := NewDocument(root)
		for _, opts := range []WriteOptions{{}, {Indent: "  ", Header: true}, {Indent: "\t"}} {
			var b strings.Builder
			if err := doc.Write(&b, opts); err != nil {
				t.Fatal(err)
			}
			if got, want := b.String(), runeWrite(doc, opts); got != want {
				t.Fatalf("opts %+v:\n got %q\nwant %q", opts, got, want)
			}
		}
	})
}

func TestWriteMatchesRuneWriterOnDeepDocument(t *testing.T) {
	doc := mustParse(t, strings.Repeat("<d k=\"&quot;\">", 40)+"x &amp; y"+strings.Repeat("</d>", 40))
	for _, opts := range []WriteOptions{{}, {Indent: "  "}} {
		var b strings.Builder
		if err := doc.Write(&b, opts); err != nil {
			t.Fatal(err)
		}
		if got, want := b.String(), runeWrite(doc, opts); got != want {
			t.Fatalf("opts %+v:\n got %q\nwant %q", opts, got, want)
		}
	}
}
