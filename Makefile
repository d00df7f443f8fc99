# Convenience targets for the CMAB-HS reproduction.

PYTHON ?= python

.PHONY: install test bench lint figures figures-paper-scale examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Static analysis: the in-tree determinism linter always runs (stdlib
# only); ruff and mypy run when installed (pip install -e '.[dev]').
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --flow \
		--baseline lint-baseline.json src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

# Regenerate every paper table/figure (+ extensions) at reduced scale.
figures:
	$(PYTHON) -m repro run all

# The paper's Table II sizes — expect tens of minutes.
figures-paper-scale:
	$(PYTHON) -m repro run all --paper-scale

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks figure_results
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
