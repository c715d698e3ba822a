from .request import main  # projeq.cli, and numpy with it, loads once the data stage passes

if __name__ == "__main__":
    raise SystemExit(main())
