"""Helpers that more than one test module uses."""


def save_csv_dataset(path, ds) -> None:
    """Write ``ds`` in the CSV form that ``data.load_csv_dataset`` reads: the
    features, then the 1-based label, one row per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(ds.instances, ds.labels):
            features = ",".join(repr(float(v)) for v in row)
            fh.write(f"{features},{int(label) + 1}\n")
