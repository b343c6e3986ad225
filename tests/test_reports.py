import numpy as np

from fluctem.fluctuations import CorrelatorDensity
from fluctem.reports import write_csv, write_density_csv, write_json


def test_write_csv_bytes(tmp_path):
    # csv.writer's dialect: comma-separated, quoted only where needed, every
    # row ending in \r\n
    path = tmp_path / "t.csv"
    assert write_csv(path, ["a", "b"], [[1, "0.5"], (2, "x,y")]) == path
    assert path.read_bytes() == b'a,b\r\n1,0.5\r\n2,"x,y"\r\n'


def test_write_json_bytes(tmp_path):
    # keys sorted at every level, indent 1, no trailing newline
    path = tmp_path / "t.json"
    assert write_json(path, {"b": [1, "2.5"], "a": {"d": None, "c": True}}) == path
    assert path.read_bytes() == (b'{\n "a": {\n  "c": true,\n  "d": null\n },\n'
                                 b' "b": [\n  1,\n  "2.5"\n ]\n}')


def test_density_csv_rows(tmp_path):
    # one row per tensor component in C order, floats in their shortest
    # round-trip form; T and ordering blank when not given
    d = CorrelatorDensity(a=np.array([0.0, 0.0, 1.2]), b=np.array([0.6, 0.2, -0.4]),
                          omega=1.0, value=np.arange(9).reshape(3, 3) * (0.1 + 1j),
                          provenance="imag-green")
    rows = write_density_csv(tmp_path / "d.csv", [d]).read_bytes().split(b"\r\n")
    assert rows[0] == b"omega,ax,ay,az,bx,by,bz,row,col,re,im,provenance,T,ordering"
    assert rows[1] == b"1.0,0.0,0.0,1.2,0.6,0.2,-0.4,0,0,0.0,0.0,imag-green,,"
    assert rows[6] == b"1.0,0.0,0.0,1.2,0.6,0.2,-0.4,1,2,0.5,5.0,imag-green,,"
    assert rows[10:] == [b""]
    rows = write_density_csv(tmp_path / "t.csv", [d, d], T=0.8,
                             ordering="symmetrized").read_bytes().split(b"\r\n")
    assert len(rows) == 20
    assert rows[18] == b"1.0,0.0,0.0,1.2,0.6,0.2,-0.4,2,2,0.8,8.0,imag-green,0.8,symmetrized"
