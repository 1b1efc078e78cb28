"""Every input problem, run through the CLI in process: exit code 2 and
its single stderr line, byte for byte.

Each case writes a small ensemble into the working directory, with some
files replaced, so that the paths in the messages are relative.
"""

import struct

import pytest

from gramstab.cli import run_cli

_MANIFEST = '{"graph_path": "g.edges", "embedding_paths": ["a.csv", "b.csv"]}'
_WITH_IDS = ('{"graph_path": "g.edges", "embedding_paths": ["a.csv", "b.csv"], '
             '"node_id_map": "ids.json"}')
_GGE1 = '{"graph_path": "g.edges", "embedding_paths": ["a.gge1", "b.csv"]}'
_FILES = {
    "m.json": _MANIFEST,
    "g.edges": "0 1\n1 2\n2 3\n",
    "a.csv": "0,1\n1,0\n1,1\n0,2\n",
    "b.csv": "2,1\n1,3\n0,1\n1,1\n",
}
_VALIDATE = ["validate", "--manifest", "m.json"]
_HEADER = b"GGE1" + struct.pack("<QQ", 4, 2)


def _case(name, files, line, argv=_VALIDATE):
    return pytest.param({**_FILES, **files}, argv, line, id=name)


_CASES = [
    # load_manifest
    _case("manifest-json", {"m.json": "{"},
          "gramstab: error: m.json: invalid JSON: Expecting property name enclosed in double "
          "quotes: line 1 column 2 (char 1)"),
    _case("manifest-utf8", {"m.json": b"\xff{}"},
          "gramstab: error: m.json: invalid JSON: 'utf-8' codec can't decode byte 0xff in "
          "position 0: invalid start byte"),
    _case("manifest-object", {"m.json": "[]"},
          "gramstab: error: m.json: manifest must be a JSON object"),
    _case("manifest-key", {"m.json": '{"graph_path": "g.edges"}'},
          "gramstab: error: m.json: missing required key 'embedding_paths'"),
    _case("manifest-count", {"m.json": '{"graph_path": "g.edges", "embedding_paths": ["a.csv"]}'},
          "gramstab: error: m.json: embedding_paths must list at least 2 files"),
    _case("manifest-path-type",
          {"m.json": '{"graph_path": 3, "embedding_paths": ["a.csv", "b.csv"]}'},
          "gramstab: error: m.json: graph_path: expected a path string, got 3"),
    _case("manifest-empty-path",
          {"m.json": '{"graph_path": "g.edges", "embedding_paths": ["a.csv", ""]}'},
          "gramstab: error: m.json: embedding_paths: expected a path string, got ''"),
    _case("manifest-aliased",
          {"m.json": '{"graph_path": "g.edges", "embedding_paths": ["a.csv", "./a.csv"]}'},
          "gramstab: error: m.json: embedding_paths must name distinct files"),
    _case("manifest-labels-type", {"m.json": _MANIFEST[:-1] + ', "labels": "ab"}'},
          "gramstab: error: m.json: labels must be a list, got 'ab'"),
    _case("manifest-labels-length", {"m.json": _MANIFEST[:-1] + ', "labels": ["a"]}'},
          "gramstab: error: m.json: labels must match embedding_paths in length"),
    # load_id_map
    _case("ids-json", {"m.json": _WITH_IDS, "ids.json": "{"},
          "gramstab: error: ids.json: invalid JSON id map: Expecting property name enclosed in "
          "double quotes: line 1 column 2 (char 1)"),
    _case("ids-utf8", {"m.json": _WITH_IDS, "ids.json": b'{"0": 0, "\xff": 1}'},
          "gramstab: error: ids.json: invalid JSON id map: 'utf-8' codec can't decode byte 0xff "
          "in position 10: invalid start byte"),
    _case("ids-object", {"m.json": _WITH_IDS, "ids.json": "{}"},
          "gramstab: error: ids.json: id map must be a non-empty JSON object"),
    _case("ids-float-row", {"m.json": _WITH_IDS, "ids.json": '{"0": 0, "1": 1.5}'},
          "gramstab: error: ids.json: id map entries must be integers, got '1': 1.5"),
    _case("ids-key", {"m.json": _WITH_IDS, "ids.json": '{"0": 0, "x": 1}'},
          "gramstab: error: ids.json: id map entries must be integers, got 'x': 1"),
    _case("ids-twice", {"m.json": _WITH_IDS, "ids.json": '{"1": 0, "01": 1}'},
          "gramstab: error: ids.json: id map names id 1 twice"),
    _case("ids-bijection", {"m.json": _WITH_IDS, "ids.json": '{"0": 0, "1": 2}'},
          "gramstab: error: ids.json: id map values must be a bijection onto 0..1"),
    # load_edge_list
    _case("edges-columns", {"g.edges": "0 1\n2\n"},
          "gramstab: error: g.edges:2: expected at least two columns, got 1"),
    _case("edges-token", {"g.edges": "0 1\n1 x\n"},
          "gramstab: error: g.edges:2: node ids must be integers: invalid literal for int() "
          "with base 10: 'x'"),
    _case("edges-not-in-ids",
          {"m.json": _WITH_IDS, "ids.json": '{"0": 0, "1": 1, "2": 2, "3": 3}',
           "g.edges": "0 1\n1 9\n"},
          "gramstab: error: g.edges:2: node id 9 is not in the id map"),
    _case("edges-negative", {"g.edges": "0 1\n# -1\n1 -1\n"},
          "gramstab: error: g.edges:3: node ids must be non-negative"),
    _case("edges-int64", {"g.edges": "0 9223372036854775808\n"},
          "gramstab: error: g.edges:1: node id 9223372036854775808 does not fit in a signed "
          "64-bit integer"),
    _case("edges-utf8", {"g.edges": b"0 1\n1 2 \xff\n"},
          "gramstab: error: g.edges:2: not UTF-8 text: byte 0xff"),
    _case("edges-none", {"g.edges": "# no edges\n\n"},
          "gramstab: error: g.edges: no edges found"),
    _case("edges-self-loops", {"g.edges": "0 0\n2 2\n"},
          "gramstab: error: g.edges: no edges left after dropping self-loops"),
    # GGE1
    _case("gge1-header", {"m.json": _GGE1, "a.gge1": _HEADER[:10]},
          "gramstab: error: a.gge1: truncated file, expected 20 bytes but found 10"),
    _case("gge1-truncated", {"m.json": _GGE1, "a.gge1": _HEADER + bytes(60)},
          "gramstab: error: a.gge1: truncated file, expected 84 bytes but found 80"),
    _case("gge1-trailing", {"m.json": _GGE1, "a.gge1": _HEADER + bytes(72)},
          "gramstab: error: a.gge1: 8 trailing bytes, expected 84 bytes but found 92"),
    # CSV
    _case("csv-value", {"a.csv": "0,1\n1,zero\n"},
          "gramstab: error: a.csv:2: could not parse value: could not convert string to float: "
          "'zero'"),
    _case("csv-columns", {"a.csv": "0,1\n1,0,2\n"},
          "gramstab: error: a.csv:2: expected 2 columns, got 3"),
    _case("csv-empty", {"a.csv": "\n\n"},
          "gramstab: error: a.csv: file contains no data rows"),
    _case("csv-utf8", {"a.csv": b"0,1\n1,0\xff\n"},
          "gramstab: error: a.csv:2: not UTF-8 text: byte 0xff"),
    _case("csv-nan", {"a.csv": "0,1\n1,nan\n1,1\n0,2\n"},
          "gramstab: error: a.csv: matrix contains NaN or infinite values"),
    _case("csv-nan-baseline", {"b.csv": "2,1\n1,inf\n0,1\n1,1\n"},
          "gramstab: error: b.csv: matrix contains NaN or infinite values",
          argv=["baseline", "--manifest", "m.json", "--index", "aligned-cosine"]),
    _case("csv-nan-ggi", {"b.csv": "2,1\n1,inf\n0,1\n1,1\n"},
          "gramstab: error: b.csv: matrix contains NaN or infinite values",
          argv=["ggi", "--manifest", "m.json"]),
    # Beyond one file
    _case("missing-file",
          {"m.json": '{"graph_path": "g.edges", "embedding_paths": ["a.csv", "absent.csv"]}'},
          "gramstab: error: [Errno 2] No such file or directory: 'absent.csv'"),
    _case("row-mismatch", {"b.csv": "2,1\n1,3\n0,1\n"},
          "gramstab: error: config 1 has 3 rows but the graph has 4 nodes"),
    _case("k-too-large", {},
          "gramstab: error: k=4 must satisfy 1 <= k < node_count=4",
          argv=["baseline", "--manifest", "m.json", "--index", "knn-jaccard", "--k", "4"]),
    _case("synth-nodes", {},
          "gramstab: error: --nodes must be at least 2, got 1",
          argv=["synth", "--nodes", "1", "--dim", "2", "--configs", "2", "--out-dir", "out"]),
]


@pytest.mark.parametrize("files, argv, line", _CASES)
def test_input_error_exit_code_and_stderr(tmp_path, monkeypatch, capsys, files, argv, line):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
