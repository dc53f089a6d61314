"""Setuptools shim.

The project metadata lives in ``pyproject.toml``; this file exists so that
editable installs work on environments whose setuptools predates built-in
``bdist_wheel`` support (no ``wheel`` package available offline).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of SecureAngle: improving wireless security using "
        "angle-of-arrival information (HotNets 2010)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: downstream type checkers may consume our inline annotations.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
    extras_require={
        "test": ["pytest>=7.0", "pytest-benchmark>=4.0", "pytest-cov>=4.0",
                 "hypothesis>=6.0"],
        "lint": ["ruff>=0.4", "mypy>=1.8"],
    },
)
