"""S-expression reader: the tokenizer against a reference character loop."""

import sys

from diagkit import sexpr


def reference_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            tokens.append((text[start:i], start))
    return tokens


SPACES = "".join(chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace())


def test_tokenize_matches_reference_loop():
    # every character str.isspace() accepts (29 of them, "\x1c", "\x85" and "\u3000"
    # among them), beside brackets and atoms of several characters
    atoms = ["(forall", "x12", "(Prov", "%0", "succ)", "²", "a-b"]
    long_text = "".join(f"({atom}{space}){space}{atom}" for space in SPACES for atom in atoms)
    for text in ["", " ", "()", ")(", "abc", " abc ", "(a(b)c)", SPACES, long_text]:
        assert sexpr.tokenize(text) == reference_tokenize(text)
