package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/runlimit"
)

// parseOracle is the encoding/xml-based parser the tokenizer replaced,
// kept as the differential oracle: the tokenizer must accept and reject
// the same inputs and build the same trees.
func parseOracle(r io.Reader, lim runlimit.Limits) (*Document, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true

	var root *Node
	var cur *Node
	depth := 0
	nodes := 0
	countNode := func() error {
		nodes++
		if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
			return fmt.Errorf("xmltree: parse: %w",
				&runlimit.LimitError{Limit: "max-nodes", Max: lim.MaxNodes, Observed: nodes})
		}
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: %w",
					&runlimit.LimitError{Limit: "max-depth", Max: lim.MaxDepth, Observed: depth})
			}
			if err := countNode(); err != nil {
				return nil, err
			}
			e := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				e.Attrs = append(e.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmltree: parse: multiple root elements")
				}
				root = e
			} else {
				cur.AppendChild(e)
			}
			cur = e
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmltree: parse: unbalanced end element")
			}
			cur = cur.Parent
			depth--
		case xml.CharData:
			s := string(t)
			if cur == nil {
				if root != nil && strings.TrimSpace(s) != "" {
					return nil, errors.New("xmltree: parse: non-whitespace content after root element")
				}
				continue
			}
			if strings.TrimSpace(s) == "" {
				continue
			}
			if k := len(cur.Children); k > 0 && cur.Children[k-1].Kind == TextNode {
				cur.Children[k-1].Data += s
				continue
			}
			if err := countNode(); err != nil {
				return nil, err
			}
			cur.AppendChild(NewText(s))
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: parse: empty document")
	}
	if cur != nil {
		return nil, errors.New("xmltree: parse: unexpected EOF inside element")
	}
	return NewDocument(root), nil
}
