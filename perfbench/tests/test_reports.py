"""Parsers for the `pod-cli replay` and `pod-cli serve` reports, run on
output captured from the binary (`fixtures/`, small-scale jobs):

    pod-cli replay --scheme pod    --profile mail --scale 0.01 --seed 5 [--verify]
    pod-cli replay --scheme native --profile mail --scale 0.01 --seed 5
    pod-cli serve --scheme pod --profile web-vm --tenants 3 --shards 2 --jobs 2 \
        --scale 0.01 --memory 64 --seed 5
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import reports  # noqa: E402


def fixture(name):
    with open(os.path.join(HERE, "fixtures", name), encoding="utf-8") as f:
        return f.read()


class Replay(unittest.TestCase):
    def test_parses_the_pod_report(self):
        r = reports.parse_replay(fixture("replay_pod_mail.stdout"))
        self.assertEqual(r["requests"], 3281)
        self.assertEqual((r["trace"], r["scheme"]), ("mail", "POD"))
        self.assertEqual((r["mean_ms"], r["p99_ms"]), (11.37, 98.89))
        self.assertEqual(r["removed_pct"], 57.0)
        self.assertEqual(r["deduped_blocks"], 19725)
        self.assertEqual(r["capacity_mib"], 33.3)

    def test_parses_the_native_report(self):
        r = reports.parse_replay(fixture("replay_native_mail.stdout"))
        self.assertEqual(r["scheme"], "Native")
        self.assertEqual((r["mean_ms"], r["p99_ms"]), (67.12, 226.99))
        self.assertEqual((r["removed_pct"], r["capacity_mib"]), (0.0, 81.9))

    def test_canonical_output_drops_only_wall_clock_and_verdict(self):
        plain = fixture("replay_pod_mail.stdout")
        verify = fixture("replay_pod_mail_verify.stdout")
        canon = reports.canonical_replay(plain)
        self.assertNotIn("done in", canon)
        self.assertEqual(len(canon.splitlines()), len(plain.splitlines()) - 1)
        self.assertEqual(reports.canonical_replay(verify), canon)
        self.assertEqual(reports.digest(reports.canonical_replay(verify)), reports.digest(canon))

    def test_integrity_verdict(self):
        self.assertEqual(reports.integrity_verdict(fixture("replay_pod_mail_verify.stdout")), "PASS")
        self.assertIsNone(reports.integrity_verdict(fixture("replay_pod_mail.stdout")))
        self.assertEqual(reports.integrity_verdict("x\nintegrity oracle: FAIL\n"), "FAIL")

    def test_rejects_other_text(self):
        with self.assertRaises(reports.ReportError):
            reports.parse_replay(fixture("serve_pod_webvm.stdout"))


class Serve(unittest.TestCase):
    def test_parses_tenant_rows_aggregate_and_request_count(self):
        r = reports.parse_serve(fixture("serve_pod_webvm.stdout"), fixture("serve_pod_webvm.stderr"))
        self.assertEqual(r["scheme"], "POD")
        self.assertEqual(r["requests"], 4623)
        self.assertEqual([t["trace"] for t in r["tenants"]], ["web-vm", "web-vm#1", "web-vm#2"])
        self.assertEqual(r["tenants"][1]["p99_ms"], 33.43)
        a = r["all"]
        self.assertEqual(a["measured"], 3930)
        self.assertEqual((a["removed_pct"], a["mean_ms"], a["p99_ms"], a["capacity_mib"]),
                         (40.9, 6.14, 33.61, 30.9))

    def test_request_count_needs_stderr(self):
        r = reports.parse_serve(fixture("serve_pod_webvm.stdout"))
        self.assertNotIn("requests", r)

    def test_missing_tenant_row_is_an_error(self):
        text = fixture("serve_pod_webvm.stdout").replace("     2  web-vm#2", "     2", 1)
        with self.assertRaises(reports.ReportError):
            reports.parse_serve(text)

    def test_rejects_replay_text(self):
        with self.assertRaises(reports.ReportError):
            reports.parse_serve(fixture("replay_pod_mail.stdout"))


if __name__ == "__main__":
    unittest.main()
