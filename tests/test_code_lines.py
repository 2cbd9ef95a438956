import io

import code_lines

SNIPPET = '''\
"""Module docstring
over two lines."""

# A comment line.
import sys  # A trailing comment.


class Box:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        over two lines."""
        y = (x +

             1)
        text = """a string
that is not a docstring"""
        return y, text
'''
# import, class, def, the two lines of y's bracket and the three of text's
# statement; the bracket's blank line holds no token.
SNIPPET_LINES = 8


def test_counts_lines_with_a_token_outside_comments_and_docstrings():
    assert code_lines.code_lines(io.StringIO(SNIPPET).readline) == SNIPPET_LINES


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "box.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "empty.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"box {SNIPPET_LINES}\nsub/empty 0\ntotal {SNIPPET_LINES}\n"
