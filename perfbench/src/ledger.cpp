#include "ledger.hpp"

#include <cstdio>

namespace perfbench {

const char* span_label(span_name n) {
    static constexpr const char* labels[span_kinds] = {
        "io.recv",        "io.send",          "packet.decode",
        "packet.encode",  "core.rx_data_classic", "core.rx_data_light",
        "core.rx_timer",  "core.tx_feedback", "core.tx_timer",
        "core.handshake", "api.connect",      "api.send",
        "api.poll",       "bench.verify",     "bench.generate",
        "engine.timers"};
    return labels[static_cast<std::size_t>(n)];
}

bool span_log::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(records_.data(), sizeof(span_record), records_.size(), f) ==
                    records_.size();
    return std::fclose(f) == 0 && ok;
}

ledger_summary summarize(const std::vector<span_record>& spans) {
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const span_record& s : spans)
        if (s.parent != 0) child_ns[s.parent - 1] += static_cast<double>(s.end - s.start);
    ledger_summary out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span_record& s = spans[i];
        const double dur = static_cast<double>(s.end - s.start);
        span_totals& t = out.by_name[static_cast<std::size_t>(s.name)];
        ++t.calls;
        t.self_ns += dur - child_ns[i];
        if (s.parent == 0) out.top_level_ns += dur;
    }
    return out;
}

} // namespace perfbench
