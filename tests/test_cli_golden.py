"""Replay the golden CLI corpus: same stdout bytes and the same exit code.

The corpus (``tests/golden/cli_corpus.jsonl``) is a fixed record of about
550 CLI runs, taken before the Fricke and double-surface laws were merged
into one implementation driven by a ``Surface`` record, and it is never
re-recorded.  Its first line names the Python that recorded it, because
``--help`` text is formatted by that version's argparse; every other line
holds one argv, its exit code and its stdout.  The argv cover every
subcommand, both surfaces wherever ``--surface`` is accepted, the three
output formats, and the edge branches: infinite and undefined
compositions, a vertical chord, vertical tangents at the base point,
rational and irrational points at infinity, domain errors (exit 1) and
usage errors (exit 2).  The random pairs are seeded.

A pinned byte changes in one way only: an entry in ``CHANGED`` names the
argv, the exit code and stdout the CLI gives now, and the reason.  The
corpus line of that argv stays as it is, the record of what changed, and
every argv, changed or not, is replayed.  New pins go to ``PINNED`` in
``tests/test_cli.py`` or to a law's own test, not to the corpus.
"""
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from frickelab import DOUBLE, FrickeSurface, compose, line_point, line_third_intersection, replace
from frickelab.cli import run
from frickelab.exact import parse_rational

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"

USAGE = "a usage error (exit 2), not a traceback (exit 1)"
NEGATIVE_OPERAND = (
    "an operand that starts like a negative number is a value, not an unknown option (exit 2):"
    " it composes as its `--surface fricke --` twin, the next corpus line"
)

# argv -> (exit code, stdout, reason) for the argv whose behaviour was changed on purpose
CHANGED = {
    ("compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"): (
        0, '{"result": ["61/18", "-5/6", "-10/9"]}\n',
        "sigma != 0: the composition lacked the -sigma term and returned the operand (2,0,0)",
    ),
    ("compose", "--sigma", "-4", "1,2,3", "3,1,2"): (
        0, '{"result": ["10", "-5/2", "-3/2"]}\n',
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ),
    ("compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"): (
        0, '{"result": ["1607/40", "-511/104", "-342/65"]}\n',
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ),
    ("compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25"): (
        1, "",
        "sigma now shifts the double surface too; these points are not on its sigma = 5 member",
    ),
    ("compose", "1/0,1,1", "1,1,1"): (2, "", f"a zero denominator is {USAGE}"),
    ("compose", "--surface", "fricke", "--", "1/0,1,1", "1,1,1"):
        (2, "", f"a zero denominator is {USAGE}"),
    ("star", "--", "1/0,1,1", "1,1,1"): (2, "", f"a zero denominator is {USAGE}"),
    ("param", "1/0", "1"): (2, "", f"a zero denominator is {USAGE}"),
    ("negative-tree", "--n", "0", "--depth", "2"):
        (2, "", f"--n takes a positive integer: {USAGE}"),
    ("negative-tree", "--n", "-2", "--depth", "2"):
        (2, "", f"--n takes a positive integer: {USAGE}"),
    ("psi", "[1:2:3]"): (2, "", f"psi takes four coordinates: {USAGE}"),
    ("phi", "[1:2:3:4]"): (2, "", f"phi takes three coordinates: {USAGE}"),
    ("check", "--seed", "459261", "--pairs", "18"): (
        0, '{"pairs-checked": 18, "result": "ok", "seed": 459261}\n',
        "charts (P,Q) and (-P,-Q) give one double-surface point; that pair is skipped, not a crash",
    ),
    ("compose", "83/63,83/105,83/45", "-859/135,-859/1125,859/225"): (
        0, '{"result": ["47127317/12225762", "15756637/12084570", "1191658058/999263295"]}\n',
        NEGATIVE_OPERAND,
    ),
    ("compose", "115/81,-23/9,-23/27", "-131/9,131/99,-131/33"): (
        0, '{"result": ["1678241/800064", "-7333642/2696049", "-268157/372672"]}\n',
        NEGATIVE_OPERAND,
    ),
    (
        "compose",
        "-95097930110922652414662887688888159379/33198515412463488443517414273110920425,"
        "-95097930110922652414662887688888159379/5163247261481199282556292604290800545,"
        "95097930110922652414662887688888159379/42713418724615100440748580801757495155",
        "-523618030609502556343601081239352059/780314698595442969099213371454195,"
        "-523618030609502556343601081239352059/56952317971966850931852571327694775,"
        "523618030609502556343601081239352059/21490207421628138094977587913505815",
    ): (
        0,
        '{"result": ["7543408013008883740681571962036926050830890355198406860564500675629'
        "94597745079427994479801851222945949951023335365012116598452405377790159646617/57"
        "63545911825454097547088681725412035068205838018387600396698035412952183325343023"
        '607970308134426495187455921621117124451888468908090378810050", "-940930895678347'
        "62895955736472283799891911595029389476245847813327240701083630805009709694289433"
        "798612995103435565006111001156840714913224777/4643215627632349960256398179908944"
        "68693999274187528021515209914717398974851056689400610123404156320161082244188046"
        '5936686331310876158388050", "-42605133253036500516472863244633134199082779850773'
        "06706932409622239774983590447692230678237064214141334524855491693547805758301136"
        "682415908722/1932125557926994806336323940233173912398389956555067425838448264988"
        '352427660252086503588302507811864030424883194549562858357442131955832226483"]}\n',
        NEGATIVE_OPERAND,
    ),
    (
        "compose",
        "12964158485725822381270858165431520363/560873856715377796350857029275809163,"
        "-12964158485725822381270858165431520363/9422702482961818931541242364161314047,"
        "-12964158485725822381270858165431520363/2161849329060726680813361158967761127",
        "-10918171207877599424911728500763961459/4908251154372848457879706415250263055,"
        "-10918171207877599424911728500763961459/12005658869596297806276431994396287025,"
        "10918171207877599424911728500763961459/9239260562532857639688628750858076085",
    ): (
        0,
        '{"result": ["-946297583766452052803300312947435659385509023973817427320748606079'
        "92227624815861031701437795832817352633143496327983633907707207711382767636727727"
        "7/630460635207912721720431045355243476726561676935709449119088435167295999305683"
        '567285671891819431273568992234803903127300627003966509102225864043358", "-854528'
        "10961080035095011527526183658596091735833928403919395361925804304902069936637886"
        "234251880551223932556042317691863544186668870291829201171181/9260803498785171417"
        "12938394604073018475712108764377656018876724316028623221510493004606000845777870"
        '66240805974317241787804691128833805469054997942", "29958473218603467731758972955'
        "21480539211953846672145253699973859145808107250644088244208074600574731353255820"
        "77845805433574854235365783651499924202/30671641311599906378629363084177589539986"
        "43114573632523563002166061755579964818294627262023254975118772699116892708997733"
        '60943624769555183423368047"]}\n',
        NEGATIVE_OPERAND,
    ),
    (
        "compose",
        "-7576988371393605334268879457701426281/7463565831659738825142392988004336591,"
        "7576988371393605334268879457701426281/8566948103271714727334364923903516299,"
        "-7576988371393605334268879457701426281/5766388814094177651524797123601044549",
        "25271194175317158648383788760588256211/83621649669244429646133951099460335,"
        "25271194175317158648383788760588256211/3806940382585052582642238548390756925,"
        "25271194175317158648383788760588256211/1660276477646948114237385815777153865",
    ): (
        0,
        '{"result": ["-468035552360080604033442497695104279105332297042763655282603268948'
        "72322823787023796876668206149527261945350711709587015564989297161792872019865133"
        "11/18566208416197702144563565010851489758398266635537687115214474034539791621841"
        '91467790748604279841462078496907154962979216979113476186280016788319516", "16025'
        "38111634896110537789383613676266614709630506686990463759427928622892852548796009"
        "222607833497457250944416573856144037754963209093414436770503127/1872401275610728"
        "81400485184753882300556703703389209144817989308875512717319018035664898823850940"
        '4168964974350536143665704911392465725317945477222484", "-30986875826968261443233'
        "76311644353902591467161172455732438311451347890489455858872677403048017537909021"
        "308616192118236568094669124951434717639353566/2219532450927526536255250549715983"
        "22067480490673515094064090897750026942582966478501963703094764131969480982799510"
        '9996474266350021036970571708161819"]}\n',
        NEGATIVE_OPERAND,
    ),
}


def load():
    with CORPUS.open() as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


HEADER, ENTRIES = load()
RECORDED = {tuple(e["argv"]): (e["exit"], e["stdout"]) for e in ENTRIES}


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_changed_argv_are_in_the_corpus():
    assert set(CHANGED) <= set(RECORDED)
    for argv, (code, stdout, _reason) in CHANGED.items():
        assert RECORDED[argv] != (code, stdout), argv


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"])[:80])
def test_replay(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = tuple(entry["argv"])
    expected_code, expected_stdout = CHANGED.get(argv, RECORDED[argv])[:2]
    code, stdout = replay(argv)
    assert code == expected_code
    # help text is formatted by the argparse of the Python that runs it
    if "--help" not in argv or list(sys.version_info[:2]) == HEADER["python"]:
        assert stdout == expected_stdout


# -- each CHANGED value checked against its reason, not only against today's output --

def _point(text):
    return tuple(parse_rational(v) for v in text.split(","))


@pytest.mark.parametrize("argv, sigma", [
    (("compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"), 4),
    (("compose", "--sigma", "-4", "1,2,3", "3,1,2"), -4),
    (("compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"), -1450),
])
def test_shifted_composition_is_the_third_point_of_the_chord(argv, sigma):
    code, stdout, _reason = CHANGED[argv]
    surface = FrickeSurface(sigma)
    p, q = _point(argv[-2]), _point(argv[-1])
    result = tuple(parse_rational(v) for v in json.loads(stdout)["result"])
    assert code == 0
    assert surface.contains(p) and surface.contains(q) and surface.contains(result)
    assert result not in (p, q)
    assert result == line_point(p, q, line_third_intersection(p, q, "fricke", sigma).t)


def test_double_operands_are_off_the_shifted_member():
    argv = ("compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25")
    assert CHANGED[argv][:2] == (1, "")
    shifted = replace(DOUBLE, sigma=Fraction(5))
    assert DOUBLE.contains(_point(argv[-2])) and DOUBLE.contains(_point(argv[-1]))
    assert not shifted.contains(_point(argv[-2])) and not shifted.contains(_point(argv[-1]))


def test_usage_errors_were_tracebacks():
    usage = [argv for argv, (_c, _s, reason) in CHANGED.items() if reason.endswith(USAGE)]
    assert len(usage) == 8
    for argv in usage:
        assert CHANGED[argv][:2] == (2, "") and RECORDED[argv] == (1, ""), argv


def test_negative_operands_compose_as_their_twins():
    argvs = [tuple(e["argv"]) for e in ENTRIES]
    changed = [argv for argv, (_c, _s, reason) in CHANGED.items() if reason == NEGATIVE_OPERAND]
    assert len(changed) == 5
    for argv in changed:
        twin = argvs[argvs.index(argv) + 1]
        assert twin == (argv[0], "--surface", "fricke", "--", *argv[1:])
        assert RECORDED[argv] == (2, "") and CHANGED[argv][:2] == RECORDED[twin], argv


def test_check_skips_one_double_pair(monkeypatch):
    argv = ("check", "--seed", "459261", "--pairs", "18")
    surfaces = []

    def counting(a, b):
        surfaces.append(a.surface.name)
        return compose(a, b)

    monkeypatch.setattr("frickelab.fricke.compose", counting)
    assert replay(argv) == CHANGED[argv][:2]
    assert (surfaces.count("fricke"), surfaces.count("double")) == (18, 17)
