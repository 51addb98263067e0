"""Golden outputs: every subcommand, run on one small fixed workspace, gives
the exit code and the SHA-256 digests of stdout and of each output file
committed below.

The main workspace holds Latin text only (see README, Determinism): three
sites, literal and ``re:`` rules, one precise site, accents and ``&eacute;``,
a ``<script>`` block, a cut-off final tag, a page with no opening, an unclosed
section, two sections on one page, and bytes that are not UTF-8. Its digests
are the same on every interpreter. A second workspace holds one page of
letters assigned in Unicode 14.0 to 15.1, which ``tokens`` and ``audit`` read
differently under each version of the Unicode database; its digests are
kept per ``unicodedata.unidata_version``.

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
import unicodedata
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

# letters from Unicode 14.0 (U+1DF00), 15.0 (U+11F04, U+1E4D0) and 15.1 (U+2EBF0), then Latin
UNICODE_LINE = "\U0001DF00\U0001DF01 \U00011F04\U00011F05 \U0001E4D0\U0001E4D1 \U0002EBF0\U0002EBF1 café"

UNICODE_MANIFEST = b"""site_id,label,page_path,url_prefixes
delta,blog,,delta.example.org
delta,blog,delta/d1.html,
"""

UNICODE_RULES = (
    RULES.splitlines(keepends=True)[0]
    + b"delta,blog,True,<aside>,</aside>," + b",".join([b"False"] * 7) + b"\n"
)

# the line in main content, after it a comment section in Latin, so the
# section's byte bounds map to characters past the four-byte letters
UNICODE_PAGES = {
    "delta/d1.html": f"""<html><body><p>{UNICODE_LINE}</p>
<aside><p>Un café, merci</p></aside>
</body></html>
""".encode(),
}

UNICODE_RUNS = {"tokens": ["tokens"], "audit": ["audit"]}

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
        "stdout": "b5b1dcc853a8a1ab34f1c339bbc2c5e2470545fbf8b7190d3169b801a10d878b",
        "edges.csv": "f81d6f856dcb1820a5e3a632dd083831068da10e64672c128c46d2f002b32560"
    },
    "crosstab": {
        "exit": 0,
        "stdout": "da1be58f4bfe45627606770990829efb4fd92b34e1623d57ba36aaf1413148c3",
        "crosstab.csv": "26ce0160acecdc6e28cf64d1de3263ea9a6f766562779cff8baf11eaea22cfdc"
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
        "stdout": "83bc43c1c0dd96f43d39dfae2376c5148eb737b3803615290822d645838f2061",
        "tokens_with_comments.csv": "c01c20cac63b2323e933c615a8ae99791e06df4663f039ed80395f18ce1d7072",
        "tokens_without_comments.csv": "81691f825c227833a8a1df079428c5d491b11f16eea1dcf20539ee5b3f7b2dfa"
    },
    "audit": {
        "exit": 0,
        "stdout": "5b17b45b2f667dd3b38bb976c8f92faa4575f00707db08fbe6e2a6da927b7a65",
        "audit.csv": "b18a9a69275928d69fb9a84cd96912cd77a8c2ec98903cfa85bd87d3fe521dbb",
        "audit.txt": "5b17b45b2f667dd3b38bb976c8f92faa4575f00707db08fbe6e2a6da927b7a65",
        "audit_sites.csv": "a600ca5a134d9ed4c0dbcc5e0ab86dba19e940b38b7f8789c0e0a380f49c67f2"
    }
}

# unicodedata.unidata_version -> the same shape as GOLDEN, for UNICODE_RUNS
UNICODE_GOLDEN: dict[str, dict[str, dict[str, object]]] = {
    "13.0.0": {
        "tokens": {
            "exit": 0,
            "stdout": "b2ac81c047028e655374d8c7fb58d792e4cc44739b2eb64e5cb7f2a5db1dc2c3",
            "tokens_with_comments.csv": "0dcb41314ca8ce318125df41b32b05fb9ccf3a825ae43f428d96ca2e86c4040a",
            "tokens_without_comments.csv": "c0dcd020799f7e573b70ab44491d5ae84264e03907277cc82e73c6a38efbaec4"
        },
        "audit": {
            "exit": 0,
            "stdout": "e7192fc144cb5c298c34f9c3ccfa6cf27c776c1ee514251cb17f6d1074edf745",
            "audit.csv": "f8ef4251220046828848c1237b27b0572e6803aba4af007f07127d22d82ae44b",
            "audit.txt": "e7192fc144cb5c298c34f9c3ccfa6cf27c776c1ee514251cb17f6d1074edf745",
            "audit_sites.csv": "51f97abe7b63766b07f299e63deb6471a9d68b17d72b764959ab5ae7ccd70832"
        }
    },
    "14.0.0": {
        "tokens": {
            "exit": 0,
            "stdout": "f7fe7e6aa0fae81701f574214af75be80247ff6f51722da67f5c509c9f7bc521",
            "tokens_with_comments.csv": "14cfa8187865008c470c3c87cd1a0e205566f6562270c1548fa8e3feef42727b",
            "tokens_without_comments.csv": "951771b205511bb15ca5c5a1ff99897a4f1699f98debe473eaca628a0d175c40"
        },
        "audit": {
            "exit": 0,
            "stdout": "64b680e251af52cd5e995e022764117e60588228c02974278416c2928b8ea636",
            "audit.csv": "15471a861556399c137c01f088397a695505641e87913d83a602fbe651214d43",
            "audit.txt": "64b680e251af52cd5e995e022764117e60588228c02974278416c2928b8ea636",
            "audit_sites.csv": "51f97abe7b63766b07f299e63deb6471a9d68b17d72b764959ab5ae7ccd70832"
        }
    },
    "15.0.0": {
        "tokens": {
            "exit": 0,
            "stdout": "7f2d50e5482d0f5e0930a3ec57a071751303fe8338a66831291b7606a0b01aea",
            "tokens_with_comments.csv": "fa51184d5cb9beb8dd8d9f6abe035334bf8ce4b4dc4612c6a4bff2f7aedf6abf",
            "tokens_without_comments.csv": "838c1230230fb4722c03e32b82d637097210f86847d6a559c2e34e0d5d34f643"
        },
        "audit": {
            "exit": 0,
            "stdout": "fe680df77bc4937e69d86ae83f4cff711266a82c1040e79f05f38838170258d1",
            "audit.csv": "34e575af0290d99f276cf9f55f99b4c5f719dc67bc9b2140ec657d5d10f2795c",
            "audit.txt": "fe680df77bc4937e69d86ae83f4cff711266a82c1040e79f05f38838170258d1",
            "audit_sites.csv": "51f97abe7b63766b07f299e63deb6471a9d68b17d72b764959ab5ae7ccd70832"
        }
    },
    "15.1.0": {
        "tokens": {
            "exit": 0,
            "stdout": "32a69e1ce25d9673fd74e31e98d3f563ff763c64ef974fd52ae2176f23afa6a2",
            "tokens_with_comments.csv": "52a73bf9d3cb5c4278a6193e340d9d55edf993d6073f3e3b7de772658f7aba3d",
            "tokens_without_comments.csv": "7142586f02952f0e4d849a5b8a53a591798cb9f077fc1a68d638b1efeac9fdfd"
        },
        "audit": {
            "exit": 0,
            "stdout": "394008718b586a038addfd06d1f1f71d585351048158aee6650b92fecf506b8f",
            "audit.csv": "8ac0fb05d3b73fb104a3f697364d6f0731d9ac131472f35d404d822643209a16",
            "audit.txt": "394008718b586a038addfd06d1f1f71d585351048158aee6650b92fecf506b8f",
            "audit_sites.csv": "51f97abe7b63766b07f299e63deb6471a9d68b17d72b764959ab5ae7ccd70832"
        }
    }
}


def write_workspace(base: Path, pages: dict[str, bytes], manifest: bytes, rules: bytes) -> None:
    """crawl/, manifest.csv and rules.csv under base, from the given byte strings."""
    for page_path, data in pages.items():
        file = base / "crawl" / page_path
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_bytes(data)
    (base / "manifest.csv").write_bytes(manifest)
    (base / "rules.csv").write_bytes(rules)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(
    base: Path, pages: dict[str, bytes], manifest: bytes, rules: bytes, runs: dict[str, list[str]]
) -> dict[str, dict[str, object]]:
    """Each run's exit code and digests, every run writing to its own --out under base."""
    write_workspace(base, pages, manifest, rules)
    results = {}
    for name, argv in runs.items():
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
    """Run every subcommand in base and compare with GOLDEN; on a mismatch, show the actual digests.

    Before the digests: the tag that the end of beta/b1.html cuts off is markup to
    both readers, an anchor to alpha for links and no words for tokens.
    """
    actual = run_all(base, PAGES, MANIFEST, RULES, RUNS)
    edges = (base / "out" / "links" / "edges.csv").read_text(encoding="utf-8").splitlines()
    assert "beta,alpha,main,beta/b1.html,http://alpha.example.org/cut" in edges
    for table in ("tokens_with_comments.csv", "tokens_without_comments.csv"):
        rows = (base / "out" / "tokens" / table).read_text(encoding="utf-8").splitlines()
        assert not {row.split(",")[0] for row in rows} & {"href", "http", "cut"}, table
    if actual != GOLDEN:
        raise AssertionError(
            "outputs differ from GOLDEN in tests/test_golden.py; actual:\n" + json.dumps(actual, indent=4)
        )


def check_unicode_golden(base: Path) -> None:
    """Run tokens and audit on the Unicode page in base and compare with this Unicode version's digests."""
    actual = run_all(base, UNICODE_PAGES, UNICODE_MANIFEST, UNICODE_RULES, UNICODE_RUNS)
    version = unicodedata.unidata_version
    expected = UNICODE_GOLDEN.get(version)
    if actual != expected:
        problem = "no UNICODE_GOLDEN entry" if expected is None else "outputs differ from UNICODE_GOLDEN"
        raise AssertionError(
            f"{problem} in tests/test_golden.py for Unicode {version}; actual:\n" + json.dumps(actual, indent=4)
        )


def test_every_subcommand_gives_the_golden_outputs(tmp_path):
    check_golden(tmp_path)


def test_newer_letters_give_the_digests_of_this_unicode_version(tmp_path):
    check_unicode_golden(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        check_golden(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        check_unicode_golden(Path(tmp))
    print(f"every subcommand gives the golden outputs (Unicode {unicodedata.unidata_version})")
