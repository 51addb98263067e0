"""Golden outputs: every subcommand, run on one small fixed workspace, gives
the exit code and the SHA-256 digests of stdout and of each output file
committed below.

The workspace holds Latin text only (see README, Determinism): three sites,
literal and ``re:`` rules, one precise site, accents and ``&eacute;``, a
``<script>`` block, a cut-off final tag, a page with no opening, an unclosed
section, two sections on one page, and bytes that are not UTF-8.

The check needs only the standard library and comslice, so any interpreter
can run it without pytest:

    PYTHONPATH=src python -W error tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from comslice.cli import run

MANIFEST = b"""site_id,label,page_path,url_prefixes
alpha,blog,,alpha.example.org|http://www.alpha.example.net/blog
beta,press,,beta.example.com
gamma,forum,,gamma.example.fr
alpha,blog,alpha/a1.html,
alpha,blog,alpha/a2.html,
beta,press,beta/b1.html,
beta,press,beta/b2.html,
gamma,forum,gamma/g1.html,
"""

RULES = b"".join(
    row + b"\n"
    for row in (
        b"site_id,label,has_comments,open_pattern,close_pattern,empty_size,comment_pattern,date_pattern,"
        b"author_pattern,depth_pattern,author_url_pattern,text_pattern",
        b'alpha,blog,True,"<div id=""comments"">",<!-- /comments -->,37,"<li class=""c""",'
        b're:<time>([^<]*)</time>,<b>,"re:data-depth=""(\\d+)""","re:<a href=""([^""]*)""",re:<p>([^<]*)</p>',
        b'beta,press,True,"re:<section class=""com(?:ments)?"">",re:</section\\s*>,' + b",".join([b"False"] * 7),
        b"gamma,forum," + b",".join([b"False"] * 10),
    )
)

PAGES = {
    # two sections: two comments, then one that exceeds empty_size with no comment in it
    "alpha/a1.html": """<html><head><title>Le caf&eacute; du coin</title>
<script>var s = "<a href='http://beta.example.com/script'>";</script></head>
<body><p>Café déjà ouvert, les élèves arrivent à l'école.</p>
<a href="https://beta.example.com/news/1">presse</a> <a href="http://alpha.example.org/self">ici</a>
<div id="comments"><ul>
<li class="c" data-depth="1"><b>Zoé</b><time>2021-11-02</time><a href="http://gamma.example.fr/u/zoe">site</a>
<p>Très bon café, voir la presse</p><a href="https://BETA.example.com:443/spam">promo</a></li>
<li class="c" data-depth="2"><b>Léo</b><time>2021-11-03</time><p>D&eacute;j&agrave; vu</p></li>
</ul><!-- /comments -->
<p>Entre deux sections</p>
<div id="comments"><p>fermé</p><!-- /comments -->
</body></html>
""".encode(),
    # no opening: kept whole
    "alpha/a2.html": """<html><body><p>Pas de commentaires ici, élégant et sobre.</p>
<a href="http://beta.example.com/">beta</a></body></html>
""".encode(),
    # Latin-1 bytes, two sections of one size, and a final tag the end of the file cuts off
    "beta/b1.html": b"""<html><body><p>Actualit\xe9 pr\xeate \xff\xfe fin</p>
<a href="http://alpha.example.org/post/9">alpha</a>
<section class="com"><a href="http://alpha.example.org/c/1">un</a></section>
<p>milieu</p>
<section class="com"><a href="http://gamma.example.fr/c/2">un</a></section >
<p>suite</p><a href="http://alpha.example.org/cut""",
    # an opening that never closes
    "beta/b2.html": """<html><body><p>Une r&eacute;ponse</p><a href="http://gamma.example.fr/">g</a>
<section class="comments"><p>jamais fermée</p><a href="http://alpha.example.org/">a</a>
</body></html>
""".encode(),
    # no comments by rule; self, external and mutual links, a style block and an HTML comment
    "gamma/g1.html": """<html><head><style>p { color: red; }</style></head><body>
<!-- ancien lien <a href="http://beta.example.com/old">x</a> -->
<p>Forum général : café, thé, crème brûlée.</p>
<a href="http://alpha.example.org/post/9">a</a> <a href='http://www.alpha.example.net/blog/p'>a2</a>
<a href=http://beta.example.com/x>b</a> <a href="http://gamma.example.fr/moi">soi</a>
<a href="https://elsewhere.example.net/">ailleurs</a>
</body></html>
""".encode(),
}

RUNS = {
    "slice-rough": ["slice-rough"],
    "slice-precise": ["slice-precise"],
    "links": ["links"],
    "crosstab": ["crosstab"],
    "graph": ["graph"],
    "graph --include-comments": ["graph", "--include-comments"],
    "tokens": ["tokens"],
    "audit": ["audit"],
}

# run -> {"exit": code, "stdout": digest, output file under --out: digest}
GOLDEN: dict[str, dict[str, object]] = {
    "slice-rough": {
        "exit": 0,
        "stdout": "73152d7d03b9c26eeb04b59f7304bcecec932122ad1d72dd181518f9ef8b5f73",
        "error_report.csv": "6419bafcc5d8c47bfadccc4d2738b609eb44073a7e0c64c53fb7f670ad03e7c9",
        "error_summary.csv": "0b37a912a49d464f4f598ebd8caafaad7df6dff07d2d1724be95d789b7e0ddc8",
        "sections/alpha/a1.html.section-0.html": "9a413e3515acc1be5e5fc313a7bb40766830576c2cd63bb200cd05faf01d93a9",
        "sections/alpha/a1.html.section-1.html": "9597c796b385ffc9ef5a7776feb9f87bcbad3d463b25c06d6e5feab21f5ba3f5",
        "sections/beta/b1.html.section-0.html": "a617ec85f783dea5c8bb22248a61b8581fbfb51a1cdefa86dee189bef1d4b0e2",
        "sections/beta/b1.html.section-1.html": "6cb027ac96817ec5cf92e5d15e5967f3d3d9bc7dc50c878f9e1372c7d66952e5",
        "stripped/alpha/a1.html": "dbbc92fd010856985252a2ff9a88994cb3816683d0d7cddd4962a13899cad15c",
        "stripped/alpha/a2.html": "7fbc2b50609205c33801cb527ca687a98da9e8b23fb1ded3478b054a28ce7d6b",
        "stripped/beta/b1.html": "3fa2369a283378fd035f2ecc4ba8effacc44631434c9911f388f19d7e8575c61",
        "stripped/beta/b2.html": "8b8099b884fa60c233f9201fa44d4ce44b1365dd9a103c0f3c6c2b277a65f72b",
        "stripped/gamma/g1.html": "35d6a24e06ee684d1028a7bdb132811ea865b71d8e7aa924841e6894fba98481"
    },
    "slice-precise": {
        "exit": 0,
        "stdout": "2d2c726b1508c4ce168f29cbb20ba3dd92721a48c07b823112c0d265fa4b2fd4",
        "comments.jsonl": "27cd2250119601126aa06a7a57e5df9679fd14767b7a003a28cbc6ade2ff9fc0",
        "error_report.csv": "e73454da4ea7e2c244daeba3fe78c077bce782ee35087d5ab62f1dd62b47f846",
        "error_summary.csv": "a1f7ea1bbff3fe1ad9749d920f3f6b786f7dd4f90cd268dbcd59fd880427a2a4",
        "sections/alpha/a1.html.section-0.html": "9a413e3515acc1be5e5fc313a7bb40766830576c2cd63bb200cd05faf01d93a9",
        "sections/alpha/a1.html.section-1.html": "9597c796b385ffc9ef5a7776feb9f87bcbad3d463b25c06d6e5feab21f5ba3f5",
        "sections/beta/b1.html.section-0.html": "a617ec85f783dea5c8bb22248a61b8581fbfb51a1cdefa86dee189bef1d4b0e2",
        "sections/beta/b1.html.section-1.html": "6cb027ac96817ec5cf92e5d15e5967f3d3d9bc7dc50c878f9e1372c7d66952e5",
        "stripped/alpha/a1.html": "dbbc92fd010856985252a2ff9a88994cb3816683d0d7cddd4962a13899cad15c",
        "stripped/alpha/a2.html": "7fbc2b50609205c33801cb527ca687a98da9e8b23fb1ded3478b054a28ce7d6b",
        "stripped/beta/b1.html": "3fa2369a283378fd035f2ecc4ba8effacc44631434c9911f388f19d7e8575c61",
        "stripped/beta/b2.html": "8b8099b884fa60c233f9201fa44d4ce44b1365dd9a103c0f3c6c2b277a65f72b",
        "stripped/gamma/g1.html": "35d6a24e06ee684d1028a7bdb132811ea865b71d8e7aa924841e6894fba98481"
    },
    "links": {
        "exit": 0,
        "stdout": "d43fc597b598655f437d3033a7d1e1d0aa2c7fe671f93b39785c5b6075dd74b2",
        "edges.csv": "a0e8713d42b9281ab377b82201093bcb01660926130735807eb3b3c623ace4e9"
    },
    "crosstab": {
        "exit": 0,
        "stdout": "da1be58f4bfe45627606770990829efb4fd92b34e1623d57ba36aaf1413148c3",
        "crosstab.csv": "8bfab9e2286126e5f6a8e14272f66cf3730fdb9a692755663942a91dceaa3e20"
    },
    "graph": {
        "exit": 0,
        "stdout": "cb797e7dd2ca382ada7b9a766987bc271824e134e13ac2a19dd2de457a7f2589",
        "graph.gexf": "3ef603989c99cbce70b69db60a6de064a8d1f9323d7093f1f147bcbdea315a3f"
    },
    "graph --include-comments": {
        "exit": 0,
        "stdout": "46ee435ba88479de9e6ec6cec18bd1dcfcf5aef01e6eaac63be0a1d931e6b61f",
        "graph.gexf": "6216b0b37244c7f66c3182d2f529a4678313a7bd355e5356e4aaba458e707547"
    },
    "tokens": {
        "exit": 0,
        "stdout": "682f7389e0fa6d7b6eea88439c289cf4fe8c9cd5f428457b11b19470c5de81ee",
        "tokens_with_comments.csv": "0778d2cb79a17e6562650ba6add0abf149aa7b29ebf66e08af5c4197062ce258",
        "tokens_without_comments.csv": "44118c888661fcd66a31c4de4f1bcdcddb910204fdf6105614083f5b43f920eb"
    },
    "audit": {
        "exit": 0,
        "stdout": "9eadc8040ec14457586867d520e9abf3522e554c5ce0c65dd1d552ad359353f5",
        "audit.csv": "5cec5ae86f89e157c3014f3f7cdb329c4587e9e823367bc20e2ed6cea16eab19",
        "audit.txt": "9eadc8040ec14457586867d520e9abf3522e554c5ce0c65dd1d552ad359353f5",
        "audit_sites.csv": "a600ca5a134d9ed4c0dbcc5e0ab86dba19e940b38b7f8789c0e0a380f49c67f2"
    }
}


def write_workspace(base: Path) -> None:
    """crawl/, manifest.csv and rules.csv under base, from the byte strings above."""
    for page_path, data in PAGES.items():
        file = base / "crawl" / page_path
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_bytes(data)
    (base / "manifest.csv").write_bytes(MANIFEST)
    (base / "rules.csv").write_bytes(RULES)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(base: Path) -> dict[str, dict[str, object]]:
    """Each run's exit code and digests, every run writing to its own --out under base."""
    write_workspace(base)
    results = {}
    for name, argv in RUNS.items():
        out = base / "out" / name.replace(" ", "")
        options = ["--corpus", base / "crawl", "--manifest", base / "manifest.csv",
                   "--encoding", base / "rules.csv", "--out", out]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run([*argv, *map(str, options)])
        result: dict[str, object] = {"exit": code, "stdout": _sha256(stdout.getvalue().encode())}
        for file in sorted(p for p in out.rglob("*") if p.is_file()):
            result[file.relative_to(out).as_posix()] = _sha256(file.read_bytes())
        results[name] = result
    return results


def check_golden(base: Path) -> None:
    """Run every subcommand in base and compare with GOLDEN; on a mismatch, show the actual digests."""
    actual = run_all(base)
    if actual != GOLDEN:
        raise AssertionError(
            "outputs differ from GOLDEN in tests/test_golden.py; actual:\n" + json.dumps(actual, indent=4)
        )


def test_every_subcommand_gives_the_golden_outputs(tmp_path):
    check_golden(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        check_golden(Path(tmp))
    print("every subcommand gives the golden outputs")
