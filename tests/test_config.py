import os

import pytest

from homlab.config import RunConfig, eps_label, load_config, parse_config
from homlab.errors import ConfigurationError


def test_defaults_are_valid():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.a_preset == "smooth-iso"
    assert cfg.epsilons == [0.25, 0.125, 0.0625]
    assert cfg.domain_grid_n == 256


def test_eps_label_fractions():
    assert eps_label(0.25) == "1/4"
    assert eps_label(0.0625) == "1/16"
    assert eps_label(0.1) == "1/10"
    assert eps_label(1.0) == "1"


def test_parse_round_trip():
    cfg = parse_config("""
# comment line
A_preset = layered
W_preset = sine-mix
epsilons = 1/4, 1/8
domain_grid_n = 128
k_eigen = 7
cg_tol = 1e-11
emit_svg = true
workers = 2
""")
    cfg.validate()
    assert cfg.a_preset == "layered"
    assert cfg.w_preset == "sine-mix"
    assert cfg.epsilons == [0.25, 0.125]
    assert cfg.k_eigen == 7
    assert cfg.cg_tol == 1e-11
    assert cfg.emit_svg is True
    assert cfg.workers == 2


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("A_preset = identity\nshiny = yes\n")
    msg = str(exc.value)
    assert "shiny" in msg
    assert "line 2" in msg


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("seed = 1\nseed = 2\n")
    assert "duplicate" in str(exc.value)


def test_non_integer_where_integer_expected():
    with pytest.raises(ConfigurationError):
        parse_config("domain_grid_n = 64.5\n")


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_non_finite_number_where_integer_expected(value):
    with pytest.raises(ConfigurationError,
                       match="cell_grid_n must be an integer"):
        parse_config(f"cell_grid_n = {value}\n")


def test_resolution_rule_message_names_required_n():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("epsilons = 1/32\ndomain_grid_n = 256\n")
    assert "512" in str(exc.value)


def test_epsilon_range_checks():
    for text in ("epsilons = 0\n", "epsilons = 1/4, 1/4\n", "epsilons = 2\n"):
        with pytest.raises(ConfigurationError):
            parse_config(text)


def test_k_eigen_bounds():
    for text in ("k_eigen = 65\n", "k_eigen = 0\n"):
        with pytest.raises(ConfigurationError):
            parse_config(text)


def test_odd_cell_grid_rejected():
    with pytest.raises(ConfigurationError, match="cell_grid_n must be even"):
        parse_config("cell_grid_n = 17\n")
    RunConfig(cell_grid_n=18, domain_grid_n=65, epsilons=[0.25]).validate()


def test_bad_preset_rejected():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("A_preset = checkerboard\n")
    assert "checkerboard" in str(exc.value)


def test_bool_parsing():
    assert parse_config("emit_svg = false\n").emit_svg is False
    assert parse_config("emit_svg = 1\n").emit_svg is True
    with pytest.raises(ConfigurationError):
        parse_config("emit_svg = maybe\n")


def test_effective_workers_bounds():
    assert parse_config("workers = 3\n").effective_workers() == 3
    auto = RunConfig().effective_workers()
    assert 1 <= auto <= 4


def test_effective_workers_count_the_cpus_the_process_may_use(monkeypatch):
    """Pinned to one CPU of eight (``taskset``, a cgroup cpuset), the
    pool gets one worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert RunConfig().effective_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert RunConfig().effective_workers() == 4


def test_missing_file_raises_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_none_gives_defaults():
    cfg = load_config(None)
    assert cfg.domain_grid_n == 256


def test_scales_that_share_a_label_are_duplicates():
    """0.25 and 0.2500000000001 are both labelled 1/4, and the artifacts key
    scales by label, so the second would overwrite the first."""
    with pytest.raises(ConfigurationError,
                       match="epsilons contains duplicates: .*1/4"):
        parse_config("epsilons = 0.25, 0.2500000000001\n")
    # a value that has no label fails the range check, not the labelling
    with pytest.raises(ConfigurationError, match="outside"):
        parse_config("epsilons = nan, 1/4\n")


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        parse_config("seed = -1\n")


@pytest.mark.parametrize("text, match", [
    ("W_preset = sine3\n", r"^unknown W_preset 'sine3'; choose from \("),
    ("f_preset = bump\n", r"^unknown f_preset 'bump'; choose from \("),
    ("domain_grid_n = 2\n", "^domain_grid_n must be at least 4, got 2$"),
    ("cg_tol = 0\n", r"^cg_tol must lie in \(0, 1\), got 0\.0$"),
    ("eig_tol = 1\n", r"^eig_tol must lie in \(0, 1\), got 1\.0$"),
    ("workers = -1\n", "^workers must be nonnegative$"),
    ("seed = 1\nA_preset layered\n",
     "^config line 2 is not a key = value assignment: 'A_preset layered'$"),
    ("epsilons = ,\n", "^epsilons list is empty$"),
])
def test_config_error_branches(text, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_config(text)


def test_empty_epsilons_rejected_by_validate():
    with pytest.raises(ConfigurationError,
                       match="^epsilons must not be empty$"):
        RunConfig(epsilons=[]).validate()
