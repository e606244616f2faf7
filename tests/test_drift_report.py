import json

from drift_report import main

OLD = {
    "cramer_table.csv": "direction,t,method,estimate,stderr,hits,flag\n"
                        "e1,10.0,tilted,0.5,0.01,100,\n"
                        "e1,100.0,tilted,0.25,0.02,100,\n"
                        "e1,10.0,naive,0.4,0.1,40,\n",
    "tail_report.json": {"alpha": 1.5, "ok": True, "rows": [
        {"name": "a", "measured": 2.0, "stderr": 0.5}, {"name": "b", "measured": 0.0}]},
    "same.csv": "k,v\nx,1\n",
    "gone.csv": "k\n1\n",
    "manifest.json": {"timings_s": {"cramer": 1.0}},
}
NEW = {
    "cramer_table.csv": "direction,t,method,estimate,stderr,hits,flag\n"
                        "e1,10.0,tilted,0.5000000000005,0.01,100,\n"
                        "e1,100.0,tilted,0.25,0.021,100,\n"
                        "e1,10.0,naive,0.4,0.1,40,starved\n"
                        "e1,100.0,naive,0.0,0.0,0,starved\n",
    "tail_report.json": {"alpha": 1.5, "ok": False, "rows": [
        {"name": "a", "measured": 2.25, "stderr": 0.5}, {"name": "b", "measured": 1e-9}],
        "new_key": [1]},
    "same.csv": "k,v\nx,1.0\n",
    "added.json": {},
    "manifest.json": {"timings_s": {"cramer": 2.0}},
}


def write(root, files):
    root.mkdir()
    for name, body in files.items():
        (root / name).write_text(body if isinstance(body, str) else json.dumps(body))
    return str(root)


def test_report_is_pinned(tmp_path, capsys):
    old, new = write(tmp_path / "old", OLD), write(tmp_path / "new", NEW)
    assert main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "added.json: only in NEW",
        "cramer_table.csv: 2 of 12 numeric fields moved; largest relative change 0.05;"
        " largest in stderr units 0.05",
        "  row 3 flag: '' -> 'starved'",
        "  row 4: only in NEW",
        "gone.csv: only in OLD",
        "same.csv: 0 of 1 numeric fields moved",
        "  row 1 v: '1' -> '1.0'",
        "tail_report.json: 2 of 4 numeric fields moved; largest relative change inf;"
        " largest in stderr units 0.5",
        "  / ok: True -> False",
        "  /new_key: only in NEW",
    ]
    assert main([old, old]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cramer_table.csv: 0 of 12 numeric fields moved",
        "gone.csv: 0 of 1 numeric fields moved",
        "same.csv: 0 of 1 numeric fields moved",
        "tail_report.json: 0 of 4 numeric fields moved",
    ]
    assert main([old]) == 2
